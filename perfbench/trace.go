package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test is not instrumented). Spans of one request
// or one step share a group id; parent is 0 for a group's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs pay no tracing cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, group, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return id
}

// open is a span in progress. Children are added after the parent ends, so
// a parent reserves its id up front.
type open struct {
	r      *recorder
	id     int64
	group  int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span. Its id is reserved now so that children can name it
// as their parent before it ends.
func (r *recorder) begin(name string, group, parent int64) *open {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Group: group, Parent: parent, Name: name})
	r.mu.Unlock()
	return &open{r: r, id: id, group: group, parent: parent, name: name, start: time.Now()}
}

// ID returns the span id to use as a child's parent (0 for a nil span).
func (o *open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.id
}

// end closes the span.
func (o *open) end() {
	if o == nil {
		return
	}
	end := time.Now()
	o.r.mu.Lock()
	sp := &o.r.spans[o.id-1]
	sp.Start = int64(o.start.Sub(o.r.epoch))
	sp.End = int64(end.Sub(o.r.epoch))
	o.r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write emits every span as one JSON document.
func (r *recorder) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover. The
// children of one span may overlap (parallel calls), so their intervals
// are merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, iv := range ivs {
			a, b := max(iv[0], s.Start), min(iv[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				flush()
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		flush()
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// checkTree verifies the recorded spans form well-nested trees: every
// parent exists, shares the child's group and encloses its interval.
func checkTree(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		case p.Group != s.Group:
			return fmt.Errorf("span %d (%s) is in group %d, its parent in %d", s.ID, s.Name, s.Group, p.Group)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) is not inside its parent %s", s.ID, s.Name, p.Name)
		}
	}
	return nil
}
