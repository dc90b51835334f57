package wal

import (
	"os"
	"syscall"
)

// canPrealloc turns on preallocated, fdatasync'd commits (see reserve).
const canPrealloc = true

// fallocate grows f by n zero bytes at off (mode 0 extends the size). A
// file system without fallocate reports an error that matches
// errors.ErrUnsupported.
func fallocate(f *os.File, off, n int64) error {
	return ignoringEINTR(func() error { return syscall.Fallocate(int(f.Fd()), 0, off, n) })
}

// fdatasync syncs f's data and the metadata needed to read it back,
// including its size, but not its timestamps.
func fdatasync(f *os.File) error {
	return ignoringEINTR(func() error { return syscall.Fdatasync(int(f.Fd())) })
}

func ignoringEINTR(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}
