package asyncgraph

import (
	"encoding/binary"
	"encoding/hex"
	"math/bits"

	"asyncg/internal/loc"
)

// FingerprintVersion names the algorithm behind Graph.Fingerprint and
// prefixes every fingerprint it returns ("ag2-" plus 16 hex digits).
// Fingerprints of different versions never compare equal, so anything
// that stores or merges them across processes (fleet journals and
// shard results) checks the prefix rather than mixing two algorithms'
// graph classes.
const FingerprintVersion = "ag2"

// fingerprintRounds is the number of Weisfeiler-Lehman refinement
// rounds. Three rounds propagate structure across CR→CE→(created nodes)
// chains far enough to separate every graph shape the detectors care
// about.
const fingerprintRounds = 3

// Salts keep the hash domains apart: node fields, edge tags, and the
// two directions an edge is seen from.
const (
	nodeSeed uint64 = 0x243f6a8885a308d3
	edgeSeed uint64 = 0x13198a2e03707344
	outSalt  uint64 = 0xa4093822299f31d0
	inSalt   uint64 = 0x082efa98ec4e6c89
)

// fpScratch holds the label arrays one Fingerprint call needs. It lives
// on the Graph (created lazily on first use) so a graph fingerprinted
// after every run, the explore engine's steady state, reuses them.
type fpScratch struct {
	labels, next, tags []uint64
}

// growU64 resizes buf to n elements, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element.
func growU64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Fingerprint returns a canonical hash of the graph's structure: the
// multiset of CR/CE/CT/OB nodes (kind, API, event, callback name, source
// location, removal state, containing phase) connected by direct,
// binding and relation edges. It is invariant under node numbering, edge
// order and tick numbering, so two runs of a program produce the same
// fingerprint exactly when they built the same Async Graph shape —
// the equivalence the explore package uses to diff schedules.
//
// The hash is a Weisfeiler-Lehman refinement with sums as the multiset
// function. Every node starts from a hash of its fields. Each of the
// fingerprintRounds rounds sets a node's next label to mix(label) plus,
// for each edge at the node, mix(tag ^ mix(neighbour label ^ direction
// salt)), where tag hashes the edge's kind and label. Addition makes
// the result independent of node and edge order without sorting. The
// digest is the mixed sum of the final labels, printed as
// FingerprintVersion + "-" + 16 hex digits. The cost is
// O(rounds·(nodes+edges)) with one allocation, the returned string.
//
// Volatile decoration is deliberately excluded: display labels and
// object ids (both depend on allocation order), registration/trigger
// sequence numbers, execution counters (already represented by CE nodes
// and binding edges), warnings (classified separately), and promise
// stacks.
func (g *Graph) Fingerprint() string {
	if g.fp == nil {
		g.fp = &fpScratch{}
	}
	s := g.fp
	n := len(g.Nodes)
	labels := growU64(&s.labels, n)
	next := growU64(&s.next, n)
	for i, node := range g.Nodes {
		labels[i] = nodeLabel(g, node)
	}
	tags := growU64(&s.tags, len(g.Edges))
	for i, e := range g.Edges {
		tags[i] = hashString(hashWord(edgeSeed, uint64(e.Kind)), e.Label)
	}

	for round := 0; round < fingerprintRounds; round++ {
		for i, l := range labels {
			next[i] = mix(l)
		}
		for i, e := range g.Edges {
			// Edges with a dangling endpoint are skipped.
			if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
				continue
			}
			next[e.From] += mix(tags[i] ^ mix(labels[e.To]^outSalt))
			next[e.To] += mix(tags[i] ^ mix(labels[e.From]^inSalt))
		}
		labels, next = next, labels
	}
	s.labels, s.next = labels, next

	sum := hashWord(hashWord(nodeSeed, uint64(n)), uint64(len(g.Edges)))
	for _, l := range labels {
		sum += mix(l)
	}
	var digest [8]byte
	binary.BigEndian.PutUint64(digest[:], mix(sum))
	var out [len(FingerprintVersion) + 1 + 16]byte
	copy(out[:], FingerprintVersion+"-")
	hex.Encode(out[len(FingerprintVersion)+1:], digest[:])
	return string(out[:])
}

// nodeLabel hashes the schedule-stable attributes of one node. The
// containing tick's phase participates (a callback running in the timer
// phase is different behaviour from the same callback in the I/O phase)
// but the tick index does not; a node of an uncommitted tick hashes
// with phase "".
func nodeLabel(g *Graph, n *Node) uint64 {
	phase := ""
	if tk := g.TickOf(n.ID); tk != nil {
		phase = tk.Phase
	}
	removed := uint64(0)
	if n.Removed {
		removed = 1
	}
	h := hashWord(nodeSeed, uint64(n.Kind)<<1|removed)
	h = hashString(h, n.API)
	h = hashString(h, n.Event)
	h = hashString(h, n.Func)
	h = hashLoc(h, n.Loc)
	return hashString(h, phase)
}

// hashLoc folds a location into the state. Every runtime-internal
// location hashes alike, as they all render as "*".
func hashLoc(h uint64, l loc.Loc) uint64 {
	if l.IsInternal() {
		return hashWord(h, ^uint64(0))
	}
	return hashWord(hashString(h, l.File), uint64(l.Line))
}

// hashString folds a string into the state 8 bytes per step, followed
// by its length, so that field boundaries cannot shift between strings.
func hashString(h uint64, s string) uint64 {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h = hashWord(h, uint64(s[i])|uint64(s[i+1])<<8|uint64(s[i+2])<<16|uint64(s[i+3])<<24|
			uint64(s[i+4])<<32|uint64(s[i+5])<<40|uint64(s[i+6])<<48|uint64(s[i+7])<<56)
	}
	if i < len(s) {
		var w uint64
		for j := len(s) - 1; j >= i; j-- {
			w = w<<8 | uint64(s[j])
		}
		h = hashWord(h, w)
	}
	return hashWord(h, uint64(len(s)))
}

// hashWord folds one 64-bit word into the state: one multiply and a
// rotation per word. It is a fast absorber, not a finalizer; labels and
// digests go through mix before they are compared.
func hashWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 31)
}

// mix is the murmur3 64-bit finalizer. It is applied to every term
// before it enters a sum, so that a node label and an edge tag cannot
// cancel structurally (xor without mixing would make a-tag-b and
// b-tag-a collide) and sums of related labels stay unrelated.
func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
