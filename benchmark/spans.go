package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Spans of one operation share Op; Parent
// names the span whose call caused this one (0 for an operation's root).
//
// Calls too short and too frequent to record one by one (the builder's
// and the analyzer's probe hooks, several per simulated callback) are
// folded into one aggregate span per run: Start and End bound the run,
// Busy is the time actually spent inside the calls and Count their
// number. An aggregate span's duration is its Busy time.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Busy   int64  `json:"busyNs,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

// aggregate reports whether the span folds many calls (see Span).
func (s Span) aggregate() bool { return s.Count > 0 }

// Dur is the time the span's layer was busy.
func (s Span) Dur() int64 {
	if s.aggregate() {
		return s.Busy
	}
	return s.End - s.Start
}

// Recorder keeps spans in memory; they are written out once, when the
// benchmark ends, so recording costs an append under a lock and no I/O.
type Recorder struct {
	base time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{base: time.Now()} }

// now is the recorder clock: nanoseconds since the recorder was made.
func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (r *Recorder) newID() int64 { return r.next.Add(1) }

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r *Recorder
	s Span
}

// begin starts a span named name for operation op under parent.
func (r *Recorder) begin(name string, op, parent int64) openSpan {
	return openSpan{r: r, s: Span{ID: r.newID(), Parent: parent, Op: op, Name: name, Start: r.now()}}
}

// beginOp starts the root span of a new operation; its id is the
// operation's id.
func (r *Recorder) beginOp(name string) openSpan {
	o := r.begin(name, 0, 0)
	o.s.Op = o.s.ID
	return o
}

// id is the open span's id, for its children's Parent.
func (o openSpan) id() int64 { return o.s.ID }

// end closes and records the span.
func (o openSpan) end() Span {
	o.s.End = o.r.now()
	o.r.add(o.s)
	return o.s
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of it its children cover. Overlapping children (the
// runs of two workers under one exploration) count their union once;
// aggregate children cover their Busy time.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var intervals [][2]int64
		for _, c := range children[s.ID] {
			if c.aggregate() {
				covered += c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				intervals = append(intervals, [2]int64{lo, hi})
			}
		}
		covered += unionLength(intervals)
		self := s.Dur() - covered
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// spanTotal sums the spans of one name: the number of calls, their
// total duration and their total self time.
type spanTotal struct {
	Calls int64
	Dur   int64
	Self  int64
}

func totalsByName(spans []Span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		t := out[s.Name]
		if s.aggregate() {
			t.Calls += s.Count
		} else {
			t.Calls++
		}
		t.Dur += s.Dur()
		t.Self += self[s.ID]
		out[s.Name] = t
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
