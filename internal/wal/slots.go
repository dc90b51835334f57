package wal

import (
	"runtime"
	"sync"
)

// syncSlots bounds the goroutines inside a blocking file sync across the
// whole process (see the package comment's Group commit section). Ps are
// a process resource, so two durable services in one process share it.
var syncSlots = newSlots()

// slots is a counting semaphore whose limit, max(1, GOMAXPROCS−1), is
// read at every acquire, so it follows runtime.GOMAXPROCS changes. A
// waiter parks on the condition variable and holds no P while it waits.
type slots struct {
	mu      sync.Mutex
	free    sync.Cond
	active  int // goroutines holding a slot
	waiting int // goroutines parked in acquire
}

func newSlots() *slots {
	s := &slots{}
	s.free.L = &s.mu
	return s
}

func syncLimit() int { return max(1, runtime.GOMAXPROCS(0)-1) }

func (s *slots) acquire() {
	s.mu.Lock()
	for s.active >= syncLimit() {
		s.waiting++
		s.free.Wait()
		s.waiting--
	}
	s.active++
	s.mu.Unlock()
}

func (s *slots) release() {
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	s.free.Signal()
}

// withSyncSlot runs fn, a blocking file operation that ends in a sync,
// in a sync slot.
func withSyncSlot(fn func() error) error {
	syncSlots.acquire()
	defer syncSlots.release()
	return fn()
}
