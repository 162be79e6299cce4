package task

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestQueueFIFOUnderConcurrency(t *testing.T) {
	q := NewQueue()
	const producers = 4
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(&Task{Query: p, ID: int64(i)})
			}
		}(p)
	}

	// Per-producer order is checked inside the Select callback, which runs
	// under the queue lock: the check sees pops in exactly the order the
	// queue served them, so it can demand strict succession.
	var consumed atomic.Int64
	lastPerQuery := make([]int64, producers) // guarded by the queue lock
	for i := range lastPerQuery {
		lastPerQuery[i] = -1
	}
	var cwg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for consumed.Load() < producers*perProducer {
				tk := q.Select(func(items []*Task) int {
					if len(items) == 0 {
						return -1
					}
					head := items[0]
					if want := lastPerQuery[head.Query] + 1; head.ID != want {
						t.Errorf("query %d: popped ID %d, want %d", head.Query, head.ID, want)
					}
					lastPerQuery[head.Query] = head.ID
					return 0
				})
				if tk != nil {
					consumed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if consumed.Load() != producers*perProducer {
		t.Fatalf("consumed %d", consumed.Load())
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
	for p, last := range lastPerQuery {
		if last != perProducer-1 {
			t.Fatalf("query %d: last popped ID %d, want %d", p, last, perProducer-1)
		}
	}
}

func TestSelectRemovesChosen(t *testing.T) {
	q := NewQueue()
	for i := int64(0); i < 5; i++ {
		q.Push(&Task{ID: i})
	}
	got := q.Select(func(items []*Task) int {
		for i, t := range items {
			if t.ID == 3 {
				return i
			}
		}
		return -1
	})
	if got == nil || got.ID != 3 {
		t.Fatalf("Select = %+v", got)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Remaining order intact.
	want := []int64{0, 1, 2, 4}
	for _, w := range want {
		if got := q.PopHead(); got.ID != w {
			t.Fatalf("PopHead = %d, want %d", got.ID, w)
		}
	}
}

func TestSelectNegativeKeepsQueue(t *testing.T) {
	q := NewQueue()
	q.Push(&Task{ID: 1})
	if got := q.Select(func([]*Task) int { return -1 }); got != nil {
		t.Fatal("Select(-1) returned a task")
	}
	if q.Len() != 1 {
		t.Fatal("task lost")
	}
}
