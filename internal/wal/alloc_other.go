//go:build !linux

package wal

import (
	"errors"
	"os"
)

// canPrealloc is false: Commit appends and fsyncs.
const canPrealloc = false

func fallocate(*os.File, int64, int64) error { return errors.ErrUnsupported }

func fdatasync(f *os.File) error { return f.Sync() }
