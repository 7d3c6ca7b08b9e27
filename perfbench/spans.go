package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one search or one job
// share Trace; Parent is the ID of the span that caused it (0 for a
// root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// newID reserves a span ID, so a span's children can name it as their
// parent before the span itself ends.
func (r *recorder) newID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record reserves an ID and records the span in one call.
func (r *recorder) record(trace, name string, parent int, start, end time.Time) span {
	s := span{ID: r.newID(), Parent: parent, Trace: trace, Name: name, Start: start, End: end}
	r.add(s)
	return s
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines, ordered by ID.
func (r *recorder) write(path string) error {
	spans := r.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children that overlap one
// another (concurrent evaluations of one job) are counted once, and the
// parts of a child outside its parent's interval are ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && !ivs[i].a.After(b); i++ {
			if ivs[i].b.After(b) {
				b = ivs[i].b
			}
		}
		total += b.Sub(a)
	}
	return total
}
