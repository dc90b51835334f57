package serve

import (
	"loadmax/internal/job"

	"sync"
	"testing"
	"time"
)

// TestReqQueueOrderAndDrain: push order is drain order, the whole
// backlog moves in one drain, and the scratch slice is reusable.
func TestReqQueueOrderAndDrain(t *testing.T) {
	q := newReqQueue(8)
	reqs := make([]*request, 5)
	for i := range reqs {
		reqs[i] = &request{oneJob: [1]job.Job{{ID: i, Proc: 1, Deadline: 100}}}
		if !q.push(reqs[i]) {
			t.Fatalf("push %d refused on open queue", i)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	scratch := make([]*request, 0, 2)
	scratch, ok := q.drain(scratch[:0])
	if !ok || len(scratch) != 5 {
		t.Fatalf("drain = %d items, ok=%v; want 5, true", len(scratch), ok)
	}
	for i, r := range scratch {
		if r != reqs[i] {
			t.Fatalf("drain order broken at %d", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", q.Len())
	}
}

// TestReqQueueTryPushFull: tryPush refuses at capacity without
// blocking, and reports closed distinctly.
func TestReqQueueTryPushFull(t *testing.T) {
	q := newReqQueue(2)
	for i := 0; i < 2; i++ {
		if ok, _ := q.tryPush(&request{}); !ok {
			t.Fatalf("tryPush %d refused below capacity", i)
		}
	}
	if ok, closed := q.tryPush(&request{}); ok || closed {
		t.Fatalf("tryPush on full queue = (%v, %v), want (false, false)", ok, closed)
	}
	q.close()
	if ok, closed := q.tryPush(&request{}); ok || !closed {
		t.Fatalf("tryPush on closed queue = (%v, %v), want (false, true)", ok, closed)
	}
}

// TestReqQueueBlockedPushAdmittedByDrain: a push blocked on a full
// queue completes as soon as the consumer drains — the liveness Close
// depends on.
func TestReqQueueBlockedPushAdmittedByDrain(t *testing.T) {
	q := newReqQueue(1)
	q.push(&request{})
	done := make(chan bool, 1)
	go func() { done <- q.push(&request{}) }()
	select {
	case <-done:
		t.Fatal("push should block on a full queue")
	case <-time.After(10 * time.Millisecond):
	}
	if got, ok := q.drain(nil); !ok || len(got) != 1 {
		t.Fatalf("drain = %d, %v; want 1, true", len(got), ok)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("unblocked push reported closed on an open queue")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked push never admitted after drain")
	}
}

// TestReqQueueCloseSemantics: close wakes blocked pushers with false,
// drain hands out the remaining backlog once, then reports done.
func TestReqQueueCloseSemantics(t *testing.T) {
	q := newReqQueue(1)
	q.push(&request{})
	pushRes := make(chan bool, 1)
	go func() { pushRes <- q.push(&request{}) }() // blocks: full
	time.Sleep(10 * time.Millisecond)
	q.close()
	if ok := <-pushRes; ok {
		t.Fatal("push blocked across close should return false")
	}
	got, ok := q.drain(nil)
	if !ok || len(got) != 1 {
		t.Fatalf("drain after close = %d, %v; want the 1 remaining item, true", len(got), ok)
	}
	if got, ok := q.drain(nil); ok || len(got) != 0 {
		t.Fatalf("drain on closed+empty = %d, %v; want 0, false", len(got), ok)
	}
}

// TestReqQueueConcurrentProducers: many producers, one consumer, run
// under -race; every request arrives exactly once and per-producer
// FIFO order survives the interleaving.
func TestReqQueueConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 500
	q := newReqQueue(16)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !q.push(&request{oneJob: [1]job.Job{{ID: p*perProducer + i, Proc: 1, Deadline: 1e9}}}) {
					t.Errorf("producer %d: push refused", p)
					return
				}
			}
		}(p)
	}
	go func() { wg.Wait(); q.close() }()

	lastSeen := make([]int, producers) // last index seen per producer, for FIFO check
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	total := 0
	scratch := make([]*request, 0, 64)
	for {
		var ok bool
		scratch, ok = q.drain(scratch[:0])
		for _, r := range scratch {
			p, i := r.oneJob[0].ID/perProducer, r.oneJob[0].ID%perProducer
			if i <= lastSeen[p] {
				t.Fatalf("producer %d order broken: saw %d after %d", p, i, lastSeen[p])
			}
			lastSeen[p] = i
			total++
		}
		if !ok {
			break
		}
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d requests, want %d", total, producers*perProducer)
	}
}
