package asyncgraph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"asyncg/internal/loc"
)

// fpGraph builds a three-node graph (OB → CR → CE) inserting the nodes
// in the given order, so tests can check the fingerprint is invariant
// under node numbering.
func fpGraph(order []int) *Graph {
	specs := []*Node{
		{Kind: OB, API: "new EventEmitter", Label: "E1", Loc: loc.Loc{File: "a.go", Line: 1}},
		{Kind: CR, API: "emitter.on", Event: "data", Func: "onData", Label: "L2: on", Loc: loc.Loc{File: "a.go", Line: 2}},
		{Kind: CE, API: "emitter.on", Event: "data", Func: "onData", Loc: loc.Loc{File: "a.go", Line: 2}},
	}
	g := NewGraph()
	tick := &Tick{Index: 1, Phase: "main"}
	ids := make(map[int]NodeID)
	for _, idx := range order {
		n := *specs[idx]
		node := g.addNode(&n)
		node.Tick = 1
		tick.Nodes = append(tick.Nodes, node.ID)
		ids[idx] = node.ID
	}
	g.Ticks = append(g.Ticks, tick)
	g.AddEdge(ids[0], ids[1], EdgeRelation, "link")
	g.AddEdge(ids[2], ids[1], EdgeBinding, "")
	return g
}

func TestFingerprintInvariantUnderNodeOrder(t *testing.T) {
	a := fpGraph([]int{0, 1, 2})
	b := fpGraph([]int{2, 0, 1})
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprints differ under node renumbering: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	// Edge insertion order must not matter either.
	c := fpGraph([]int{0, 1, 2})
	c.Edges[0], c.Edges[1] = c.Edges[1], c.Edges[0]
	if a.Fingerprint() != c.Fingerprint() {
		t.Errorf("fingerprints differ under edge reordering: %s vs %s", a.Fingerprint(), c.Fingerprint())
	}
}

func TestFingerprintSeparatesStructure(t *testing.T) {
	base := fpGraph([]int{0, 1, 2})
	seen := map[string]string{base.Fingerprint(): "base"}

	mutations := []struct {
		name string
		make func() *Graph
	}{
		{"removed CR", func() *Graph {
			g := fpGraph([]int{0, 1, 2})
			g.Nodes[1].Removed = true
			return g
		}},
		{"different phase", func() *Graph {
			g := fpGraph([]int{0, 1, 2})
			g.Ticks[0].Phase = "io"
			return g
		}},
		{"extra edge", func() *Graph {
			g := fpGraph([]int{0, 1, 2})
			g.AddEdge(0, 2, EdgeDirect, "")
			return g
		}},
		{"different event", func() *Graph {
			g := fpGraph([]int{0, 1, 2})
			g.Nodes[1].Event = "end"
			return g
		}},
	}
	for _, m := range mutations {
		fp := m.make().Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s (%s)", m.name, prev, fp)
		}
		seen[fp] = m.name
	}
}

func TestFingerprintIgnoresVolatileDecoration(t *testing.T) {
	a := fpGraph([]int{0, 1, 2})
	b := fpGraph([]int{0, 1, 2})
	// Display labels, sequence numbers and execution counters depend on
	// allocation order across schedules and must not affect the hash.
	b.Nodes[0].Label = "E7"
	b.Nodes[1].RegSeq = 99
	b.Nodes[1].Executions = 3
	b.Nodes[2].TrigSeq = 42
	b.Warnings = append(b.Warnings, Warning{Category: "dead-listener", Message: "x", Node: 1})
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("volatile decoration changed the fingerprint: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

func TestFingerprintStableAcrossJSONRoundtrip(t *testing.T) {
	g := fpGraph([]int{0, 1, 2})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != back.Fingerprint() {
		t.Errorf("JSON roundtrip changed the fingerprint: %s vs %s", g.Fingerprint(), back.Fingerprint())
	}
}

func TestFingerprintSeparatesEdgeChanges(t *testing.T) {
	base := fpGraph([]int{0, 1, 2}).Fingerprint()
	mutations := []struct {
		name string
		edit func(g *Graph)
	}{
		{"reversed edge", func(g *Graph) { g.Edges[1].From, g.Edges[1].To = g.Edges[1].To, g.Edges[1].From }},
		{"duplicated edge", func(g *Graph) { g.AddEdge(g.Edges[1].From, g.Edges[1].To, g.Edges[1].Kind, g.Edges[1].Label) }},
		{"relabelled relation", func(g *Graph) { g.Edges[0].Label = "then" }},
	}
	for _, m := range mutations {
		g := fpGraph([]int{0, 1, 2})
		m.edit(g)
		if fp := g.Fingerprint(); fp == base {
			t.Errorf("%s left the fingerprint unchanged (%s)", m.name, fp)
		}
	}
}

func TestFingerprintUncommittedTick(t *testing.T) {
	// A node whose tick is not yet committed (Tick == 0) hashes with the
	// empty phase: the same as a committed tick whose phase is "".
	open := fpGraph([]int{0, 1, 2})
	open.Nodes[2].Tick = 0
	first := open.Fingerprint()
	if again := open.Fingerprint(); again != first {
		t.Errorf("fingerprint of an uncommitted node is unstable: %s then %s", first, again)
	}
	if first == fpGraph([]int{0, 1, 2}).Fingerprint() {
		t.Errorf("uncommitted node hashed with its would-be phase %q", "main")
	}
	blank := fpGraph([]int{0, 1, 2})
	blank.Nodes[2].Tick = 2
	blank.Ticks = append(blank.Ticks, &Tick{Index: 2, Phase: "", Nodes: []NodeID{2}})
	if fp := blank.Fingerprint(); fp != first {
		t.Errorf("uncommitted node %s != node in a phase-\"\" tick %s", first, fp)
	}
}

func TestFingerprintAllocatesOnlyItsResult(t *testing.T) {
	for _, g := range []*Graph{fpGraph([]int{0, 1, 2}), syntheticGraph(2000, 3500)} {
		want := g.Fingerprint() // sizes the reusable scratch
		allocs := testing.AllocsPerRun(20, func() {
			if g.Fingerprint() != want {
				t.Fatal("fingerprint changed between calls")
			}
		})
		if allocs != 1 {
			t.Errorf("%d-node graph: Fingerprint allocates %.1f times per call, want 1 (the string)", len(g.Nodes), allocs)
		}
	}
}

func TestFingerprintVersionPrefix(t *testing.T) {
	fp := fpGraph([]int{0, 1, 2}).Fingerprint()
	if !strings.HasPrefix(fp, FingerprintVersion+"-") || len(fp) != len(FingerprintVersion)+1+16 {
		t.Errorf("fingerprint %q is not %s- plus 16 hex digits", fp, FingerprintVersion)
	}
}

// syntheticGraph builds a deterministic pseudo-random graph shaped like
// a builder's output: ticks of a few phases, nodes drawn from a small
// vocabulary of APIs, events, callbacks and locations, and edges of
// every kind, mostly between nearby nodes.
func syntheticGraph(nodes, edges int) *Graph {
	rng := rand.New(rand.NewSource(1))
	apis := []string{"setTimeout", "emitter.on", "emitter.emit", "promise.then", "process.nextTick", "new Promise", "net.connect"}
	events := []string{"", "data", "end", "close", "then", "catch"}
	funcs := []string{"", "onData", "onEnd", "handler", "resolve", "reject", "next"}
	phases := []string{"main", "nextTick", "promise", "timer", "io", "check"}
	labels := []string{"then", "link", "connection", "resolve"}
	g := NewGraph()
	var tick *Tick
	for i := 0; i < nodes; i++ {
		if tick == nil || rng.Intn(8) == 0 {
			tick = g.blankTick(phases[rng.Intn(len(phases))])
			tick.Index = len(g.Ticks) + 1
			g.Ticks = append(g.Ticks, tick)
		}
		n := g.blankNode()
		n.Kind = NodeKind(rng.Intn(4))
		n.API = apis[rng.Intn(len(apis))]
		n.Event = events[rng.Intn(len(events))]
		n.Func = funcs[rng.Intn(len(funcs))]
		n.Loc = loc.Loc{File: "server.go", Line: 10 + rng.Intn(200)}
		n.Removed = rng.Intn(50) == 0
		n.Tick = tick.Index
		g.addNode(n)
		tick.Nodes = append(tick.Nodes, n.ID)
	}
	for i := 0; i < edges; i++ {
		from := rng.Intn(nodes)
		to := from + 1 + rng.Intn(16)
		if to >= nodes {
			to = rng.Intn(nodes)
		}
		kind := EdgeKind(rng.Intn(3))
		label := ""
		if kind == EdgeRelation {
			label = labels[rng.Intn(len(labels))]
		}
		g.AddEdge(NodeID(from), NodeID(to), kind, label)
	}
	return g
}

// BenchmarkFingerprint hashes a graph the size of the Fig. 6a
// instrumented run's (about 27k nodes and 48k edges), reusing the
// graph's scratch across iterations as the explore engine does.
func BenchmarkFingerprint(b *testing.B) {
	g := syntheticGraph(30000, 50000)
	g.Fingerprint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = g.Fingerprint()
	}
}

// fingerprintSink keeps BenchmarkFingerprint's calls from being
// optimized away.
var fingerprintSink string
