package asyncgraph

import (
	"fmt"
	"slices"

	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// NodeKind distinguishes the four Async Graph node types.
type NodeKind int

// Async Graph node kinds (paper §IV-A).
const (
	CR NodeKind = iota // □ callback registration
	CE                 // ○ callback execution
	CT                 // ★ callback trigger (emit / resolve / reject)
	OB                 // △ object binding (promise / emitter creation)
)

// String renders the paper's two-letter node-kind tag ("CR", "CE", ...).
func (k NodeKind) String() string {
	switch k {
	case CR:
		return "CR"
	case CE:
		return "CE"
	case CT:
		return "CT"
	case OB:
		return "OB"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeID indexes into Graph.Nodes.
type NodeID int

// NoNode is the absent-node sentinel.
const NoNode NodeID = -1

// Node is one Async Graph node.
type Node struct {
	// ID is the node's index in Graph.Nodes.
	ID NodeID
	// Kind is the node class: CR, CE, CT, or OB.
	Kind NodeKind
	// Tick is the 1-based index of the containing tick, or 0 until the
	// tick is committed.
	Tick int
	// Loc is the source location of the originating API use.
	Loc loc.Loc
	// API is the async API that produced the node ("setTimeout",
	// "emitter.on", "promise.then", ...).
	API string
	// Event is the emitter event name or promise relation detail.
	Event string
	// Label is the display name ("L7: createServer", "P1", "E2").
	Label string
	// Obj is the bound runtime object, if any.
	Obj vm.ObjRef
	// Func names the registered/executed callback (CR and CE nodes).
	Func string
	// RegSeq is the registration sequence for CR nodes.
	RegSeq uint64
	// TrigSeq is the trigger sequence for CT nodes.
	TrigSeq uint64
	// Executions counts CE nodes mapped to this CR node.
	Executions int
	// Removed marks CR nodes whose registration was explicitly
	// retired (clearTimeout, removeListener) before executing.
	Removed bool
	// Warnings lists bug-detector annotations (the ⚡ marks of the
	// paper's figures).
	Warnings []string
	// ValueStr is the rendered settlement value for promise trigger
	// nodes (Fig. 5 labels the value flowing from p1 to p2).
	ValueStr string
	// Stack is the resolved Go call stack captured at the node's
	// creation site under the opt-in debug-stacks mode
	// (Config.DebugStacks) — the creation-site provenance a promise
	// debugger shows. Capturing and resolving it on every tracked API
	// call is the mode's dominant cost, which is why it is off by
	// default (see EXPERIMENTS.md for the measured overhead).
	Stack []string
}

// EdgeKind distinguishes Async Graph edge styles.
type EdgeKind int

// Edge kinds (paper §IV-A).
const (
	// EdgeDirect is the solid causal edge →: CR→CE, CT→CE, and the
	// happens-in edge CE→(nodes created during it).
	EdgeDirect EdgeKind = iota
	// EdgeBinding is the dashed CE⇠CR edge binding an execution to its
	// registration.
	EdgeBinding
	// EdgeRelation is a dashed labelled edge between object-binding
	// nodes and related nodes ("then", "link", "connection", ...).
	EdgeRelation
)

// String renders the edge kind as the dot-style name used in output
// ("direct", "binding", "relation").
func (k EdgeKind) String() string {
	switch k {
	case EdgeDirect:
		return "direct"
	case EdgeBinding:
		return "binding"
	case EdgeRelation:
		return "relation"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge connects two Async Graph nodes.
type Edge struct {
	// From and To are the endpoint node IDs, in arrow direction.
	From, To NodeID
	// Kind selects the edge style (solid causal, dashed binding, or
	// labelled relation).
	Kind EdgeKind
	// Label annotates relation edges ("then", "link", ...); empty
	// otherwise.
	Label string
}

// Tick is one committed event-loop tick: a single top-level callback
// execution (or the main program), labelled with its phase.
type Tick struct {
	Index int    // 1-based
	Phase string // "main", "nextTick", "promise", "timer", "io", ...
	// Nodes lists the nodes committed during this tick, in creation
	// order.
	Nodes []NodeID
}

// Name renders the paper's tick label, e.g. "t3:io".
func (t *Tick) Name() string { return fmt.Sprintf("t%d:%s", t.Index, t.Phase) }

// Category identifies a warning's bug class. The detect package defines
// the canonical constants (one per detector of the paper's §VI); typed
// categories keep callers from silently filtering on a typo'd string.
type Category string

// Warning is a bug-detector finding attached to a node.
type Warning struct {
	// Category is the bug class (one of the detect package constants).
	Category Category
	// Message is the human-readable finding.
	Message string
	// Node is the graph node the warning is anchored to, or NoNode.
	Node NodeID
	// Loc is the source location the warning points at.
	Loc loc.Loc
	// Chain is the async causal chain walked backwards from Node — the
	// warning's "async stack trace". Filled post-hoc by
	// provenance.Annotate (and by explore.Replay); empty until then.
	Chain []ChainHop `json:"chain,omitempty"`
	// ReplayToken is the schedule token that reproduces the run this
	// warning was observed in (`asyncg explore -replay <token>`).
	// Stamped by the explore layer; empty for plain single runs.
	ReplayToken string `json:"replayToken,omitempty"`
}

// String renders the warning as "[category] message (file:line)".
func (w Warning) String() string {
	return fmt.Sprintf("[%s] %s (%s)", w.Category, w.Message, w.Loc)
}

// Graph is a complete Async Graph.
type Graph struct {
	// Ticks is the committed tick sequence, in execution order.
	Ticks []*Tick
	// Nodes holds every node, indexed by NodeID.
	Nodes []*Node
	// Edges holds every edge, in creation order.
	Edges []Edge
	// Warnings accumulates detector findings over the whole run.
	Warnings []Warning

	objNodes map[uint64]NodeID // OB node per runtime object

	// nodeFree and tickFree recycle node and tick records across Reset,
	// so one allocation set serves a whole stream of runs.
	nodeFree []*Node
	tickFree []*Tick

	// fp is Fingerprint's reusable working storage, created on first
	// use and retained across Reset for the same reason as the free
	// lists above.
	fp *fpScratch

	// warnLabels interns rendered node-warning labels across Reset;
	// see warnLabel.
	warnLabels map[warnLabelKey]string
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{
		Nodes:    make([]*Node, 0, 64),
		Edges:    make([]Edge, 0, 128),
		Ticks:    make([]*Tick, 0, 32),
		objNodes: make(map[uint64]NodeID, 16),
	}
}

// Reset empties the graph for reuse, returning node and tick records to
// the free lists while keeping every backing allocation. The previous
// contents become invalid: callers that retained the graph (for example
// through a Report) must be done with it before Reset.
func (g *Graph) Reset() {
	for i, t := range g.Ticks {
		g.recycleTick(t)
		g.Ticks[i] = nil
	}
	g.Ticks = g.Ticks[:0]
	for i, n := range g.Nodes {
		g.recycleNode(n)
		g.Nodes[i] = nil
	}
	g.Nodes = g.Nodes[:0]
	for i := range g.Edges {
		g.Edges[i] = Edge{}
	}
	g.Edges = g.Edges[:0]
	for i := range g.Warnings {
		g.Warnings[i] = Warning{}
	}
	g.Warnings = g.Warnings[:0]
	clear(g.objNodes)
}

// blankNode returns a cleared node from the free list (its Warnings and
// Stack slices keep their capacity).
func (g *Graph) blankNode() *Node {
	if n := len(g.nodeFree); n > 0 {
		nd := g.nodeFree[n-1]
		g.nodeFree = g.nodeFree[:n-1]
		return nd
	}
	return &Node{}
}

// recycleNode clears a node and returns it to the free list.
func (g *Graph) recycleNode(n *Node) {
	warnings, stack := n.Warnings, n.Stack
	for i := range warnings {
		warnings[i] = ""
	}
	for i := range stack {
		stack[i] = ""
	}
	*n = Node{}
	n.Warnings = warnings[:0]
	n.Stack = stack[:0]
	g.nodeFree = append(g.nodeFree, n)
}

// blankTick returns a tick from the free list with the given phase.
func (g *Graph) blankTick(phase string) *Tick {
	if n := len(g.tickFree); n > 0 {
		t := g.tickFree[n-1]
		g.tickFree = g.tickFree[:n-1]
		t.Phase = phase
		return t
	}
	return &Tick{Phase: phase}
}

// recycleTick clears a tick and returns it to the free list.
func (g *Graph) recycleTick(t *Tick) {
	t.Index = 0
	t.Phase = ""
	t.Nodes = t.Nodes[:0]
	g.tickFree = append(g.tickFree, t)
}

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// ObjNode returns the OB node for a runtime object id, or NoNode.
func (g *Graph) ObjNode(objID uint64) NodeID {
	if id, ok := g.objNodes[objID]; ok {
		return id
	}
	return NoNode
}

// addNode appends a node and returns it.
func (g *Graph) addNode(n *Node) *Node {
	n.ID = NodeID(len(g.Nodes))
	g.Nodes = append(doubleIfFull(g.Nodes), n)
	if n.Kind == OB && !n.Obj.IsZero() {
		g.objNodes[n.Obj.ID] = n.ID
	}
	return n
}

// AddEdge appends an edge between existing nodes.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind, label string) {
	if from == NoNode || to == NoNode {
		return
	}
	g.Edges = append(doubleIfFull(g.Edges), Edge{From: from, To: to, Kind: kind, Label: label})
}

// doubleIfFull returns s with room for one more element, doubling the
// capacity when s is full. append alone grows large slices by about
// 1.25×, which makes a graph of tens of thousands of nodes copy its
// arrays several times over while it grows.
func doubleIfFull[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s))
}

// AddWarning attaches a detector finding to a node (NoNode allowed for
// program-level warnings).
func (g *Graph) AddWarning(node NodeID, category Category, message string, at loc.Loc) {
	g.Warnings = append(g.Warnings, Warning{Category: category, Message: message, Node: node, Loc: at})
	if n := g.Node(node); n != nil {
		n.Warnings = append(n.Warnings, g.warnLabel(category, message))
	}
}

// warnLabel renders "category: message", interned in a cache that
// survives Reset: a reused graph re-derives the same warnings run after
// run, so each distinct label is built once per graph lifetime.
func (g *Graph) warnLabel(category Category, message string) string {
	k := warnLabelKey{cat: category, msg: message}
	if s, ok := g.warnLabels[k]; ok {
		return s
	}
	if g.warnLabels == nil {
		g.warnLabels = make(map[warnLabelKey]string)
	}
	s := string(category) + ": " + message
	g.warnLabels[k] = s
	return s
}

// warnLabelKey identifies one interned node-warning label.
type warnLabelKey struct {
	cat Category
	msg string
}

// NodesOfKind returns all nodes of the given kind, in creation order.
func (g *Graph) NodesOfKind(kind NodeKind) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == kind {
			out = append(out, n)
		}
	}
	return out
}

// EdgesFrom returns the edges leaving a node.
func (g *Graph) EdgesFrom(id NodeID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}

// EdgesTo returns the edges entering a node.
func (g *Graph) EdgesTo(id NodeID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// TickRange extracts the sub-graph of ticks from..to (1-based,
// inclusive): the view the paper's figures use ("as the graph grows
// infinitely ... we only show the first 3 ticks"). Nodes keep their
// original labels and warnings; edges with an endpoint outside the
// window are dropped; node ids are re-assigned densely.
func (g *Graph) TickRange(from, to int) *Graph {
	if from < 1 {
		from = 1
	}
	if to > len(g.Ticks) {
		to = len(g.Ticks)
	}
	out := NewGraph()
	remap := make(map[NodeID]NodeID)
	for _, tk := range g.Ticks {
		if tk.Index < from || tk.Index > to {
			continue
		}
		newTick := &Tick{Index: len(out.Ticks) + 1, Phase: tk.Phase}
		for _, id := range tk.Nodes {
			orig := g.Node(id)
			copied := *orig
			copied.Warnings = append([]string(nil), orig.Warnings...)
			copied.Stack = append([]string(nil), orig.Stack...)
			node := out.addNode(&copied)
			node.Tick = newTick.Index
			newTick.Nodes = append(newTick.Nodes, node.ID)
			remap[id] = node.ID
		}
		out.Ticks = append(out.Ticks, newTick)
	}
	for _, e := range g.Edges {
		nf, okF := remap[e.From]
		nt, okT := remap[e.To]
		if okF && okT {
			out.AddEdge(nf, nt, e.Kind, e.Label)
		}
	}
	for _, w := range g.Warnings {
		if id, ok := remap[w.Node]; ok {
			out.Warnings = append(out.Warnings, Warning{
				Category: w.Category, Message: w.Message, Node: id, Loc: w.Loc,
			})
		}
	}
	return out
}

// TickOf returns the committed tick containing the node, or nil.
func (g *Graph) TickOf(id NodeID) *Tick {
	n := g.Node(id)
	if n == nil || n.Tick == 0 || n.Tick > len(g.Ticks) {
		return nil
	}
	return g.Ticks[n.Tick-1]
}
