package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10,50): 40, counted once.
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 50},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 130},
		// An aggregate child covers its busy time.
		{ID: 5, Parent: 1, Op: 1, Name: "hooks", Start: 0, End: 100, Busy: 15, Count: 7},
		// A grandchild reduces its parent, not the root.
		{ID: 6, Parent: 2, Op: 1, Name: "a.child", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10 - 15, 2: 20 - 6, 3: 30, 4: 40, 5: 15, 6: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	tot := totalsByName(spans)
	if got := tot["hooks"]; got.Calls != 7 || got.Dur != 15 {
		t.Errorf("aggregate totals = %+v, want 7 calls, 15ns", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "hooks", Start: 0, End: 10, Busy: 25, Count: 1},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("self time = %d, want 0", got)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	rec := newRecorder()
	root := rec.beginOp("op")
	child := rec.begin("child", root.id(), root.id())
	time.Sleep(time.Millisecond)
	c := child.end()
	r := root.end()
	if c.Parent != r.ID || c.Op != r.ID || r.Op != r.ID {
		t.Fatalf("child %+v does not point at root %+v", c, r)
	}
	if c.Start < r.Start || c.End > r.End || c.Dur() <= 0 {
		t.Fatalf("child %+v is not inside root %+v", c, r)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := writeSpans(path, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}
