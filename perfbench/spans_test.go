package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "run", Start: at(0), End: at(100)},
		// Two overlapping children cover 10..40 once: 30ms.
		{ID: 2, Parent: 1, Name: "evaluate", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "evaluate", Start: at(20), End: at(40)},
		// A child sticking out of its parent counts only inside it: 90..100.
		{ID: 4, Parent: 1, Name: "evaluate", Start: at(90), End: at(120)},
		// A grandchild is the child's business, not the run's.
		{ID: 5, Parent: 2, Name: "folds", Start: at(12), End: at(15)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 60 * time.Millisecond,
		2: 17 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 3 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}
