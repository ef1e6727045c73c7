// Package msg tracks which original messages each node knows.
//
// Full is the exact tracker: an n×n bit matrix (row v = set of original
// messages at node v) double-buffered so that a synchronous step reads
// round-start snapshots while writes land in the next state, matching the
// model's m_v(t) = ∪_{i<t} m_v^{(in)}(i) semantics (§2 of the paper).
//
// The double buffer is lazy. Rows only grow, so a row of the next state
// that is stale is a subset of the live row, and it is in sync exactly
// when the two rows have the same number of bits. Each buffer therefore
// keeps a count per row, and BeginRound copies nothing: a row of the next
// state is seeded from the live row on its first write in a round, and
// EndRound seeds the rows no transfer reached. A row that did not change
// in a round is already in sync with the new live state and is never
// copied. The per-row counts make Known O(1) and let a transfer into a
// full row return without touching the matrix. Each buffer also keeps,
// per row, one bit per 64-bit word marking the row's non-zero words, so
// a transfer from a sparse source row reads only those words. The global
// count of (node, message) pairs is maintained incrementally, so
// completion detection ("run until the entire graph is informed", §5) is
// O(1).
//
// Concurrency is receiver-sharded: during a round, transfers into
// distinct destination rows may run concurrently, and every transfer
// into one row comes from one goroutine at a time. A transfer reads only
// round-start state, which no one writes during the round.
//
// Sampled tracks K sampled messages in an n×K matrix with a whole-matrix
// snapshot per round; Single tracks a single message (broadcast
// processes, Algorithm 2's infrastructure, leader election).
package msg

import (
	"sync/atomic"

	"gossip/internal/bitset"
	"gossip/internal/par"
)

// Full is the exact message tracker. Memory is 2·n²/8 bytes for the two
// buffers, plus, per row and buffer, a 4-byte count and an n/64-bit word
// summary rounded up to whole words. The quadratic term bounds n in
// practice; the sampled tracker takes over above it.
type Full struct {
	n         int
	cur, next buffer
	total     atomic.Int64 // set bits in the live state
	inRound   bool
}

// buffer is one state of the double buffer.
type buffer struct {
	rows *bitset.Matrix // row v = messages known to node v
	nz   *bitset.Matrix // nz row v marks the non-zero words of row v
	cnt  []int32        // cnt[v] = |row v|
}

func newBuffer(n int) buffer {
	return buffer{
		rows: bitset.NewMatrix(n, n),
		nz:   bitset.NewMatrix(n, (n+63)/64),
		cnt:  make([]int32, n),
	}
}

// NewFull returns a tracker where node v knows exactly its own message v.
func NewFull(n int) *Full {
	f := &Full{n: n, cur: newBuffer(n), next: newBuffer(n)}
	for v := 0; v < n; v++ {
		f.cur.rows.Row(v).Add(v)
		f.cur.nz.Row(v).Add(v / 64)
		f.cur.cnt[v] = 1
	}
	f.total.Store(int64(n))
	return f
}

// N returns the number of nodes (= number of original messages).
func (f *Full) N() int { return f.n }

// BeginRound opens a round: subsequent Transfer calls read the live state
// as of now and write the next state. Rounds must not nest.
func (f *Full) BeginRound() {
	if f.inRound {
		panic("msg: BeginRound while a round is open")
	}
	f.inRound = true
}

// EndRound seeds the rows of the next state that no transfer reached and
// publishes it.
func (f *Full) EndRound() {
	if !f.inRound {
		panic("msg: EndRound without BeginRound")
	}
	f.inRound = false
	par.For(f.n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			f.seed(v)
		}
	})
	f.cur, f.next = f.next, f.cur
}

// seed brings row v of the next state up to the live row if it is stale.
// A stale row is a subset of the live one, so it has fewer bits; a row
// with as many bits is in sync, or already seeded and written this round.
func (f *Full) seed(v int) {
	if f.next.cnt[v] >= f.cur.cnt[v] {
		return
	}
	f.next.rows.CopyRowsFrom(f.cur.rows, v, v+1)
	f.next.nz.CopyRowsFrom(f.cur.nz, v, v+1)
	f.next.cnt[v] = f.cur.cnt[v]
}

// Transfer delivers src's round-start packet to dst (next state). Safe to
// call concurrently for distinct dst; all transfers to one dst must come
// from the same goroutine. Returns the number of messages new to dst.
func (f *Full) Transfer(src, dst int32) int {
	if !f.inRound {
		panic("msg: Transfer outside a round")
	}
	d := int(dst)
	if int(f.cur.cnt[d]) == f.n {
		return 0
	}
	f.seed(d)
	if int(f.next.cnt[d]) == f.n {
		return 0
	}
	added := f.next.rows.UnionRowMasked(d, f.cur.rows, int(src), f.cur.nz)
	if added != 0 {
		f.next.cnt[d] += int32(added)
		f.next.nz.UnionRow(d, f.cur.nz, int(src))
		f.total.Add(int64(added))
	}
	return added
}

// TransferSet delivers an explicit packet (e.g. a random-walk payload
// frozen earlier) to dst's next state, under the same concurrency rules as
// Transfer.
func (f *Full) TransferSet(s *bitset.Set, dst int32) int {
	if !f.inRound {
		panic("msg: TransferSet outside a round")
	}
	f.seed(int(dst))
	return f.next.merge(&f.total, s, int(dst))
}

// MergeNow merges s into dst's live state immediately (no round open).
// This is the random-walk arrival rule of Algorithm 1 Phase II
// (m_v ← m_v ∪ m'), where the merged set is first transmitted in a later
// step, so immediate merging cannot leak information within a step.
// The next state's row goes stale and is seeded when next written.
func (f *Full) MergeNow(s *bitset.Set, dst int32) int {
	if f.inRound {
		panic("msg: MergeNow inside a round")
	}
	return f.cur.merge(&f.total, s, int(dst))
}

// merge ors s into row v, keeping its count, its word summary and total
// exact.
func (b *buffer) merge(total *atomic.Int64, s *bitset.Set, v int) int {
	added := b.rows.UnionSet(v, s)
	if added != 0 {
		var mask bitset.Set
		b.nz.RowInto(&mask, v)
		markWords(s, &mask)
		b.cnt[v] += int32(added)
		total.Add(int64(added))
	}
	return added
}

// markWords sets bit k of mask for every non-zero 64-bit word k of s.
func markWords(s, mask *bitset.Set) {
	for i := s.NextSet(0); i >= 0; i = s.NextSet((i/64 + 1) * 64) {
		mask.Add(i / 64)
	}
}

// Row returns a read-only view of dst's live message set. Do not mutate;
// do not hold across BeginRound/EndRound.
func (f *Full) Row(v int32) *bitset.Set { return f.cur.rows.Row(int(v)) }

// RowInto repoints view at v's live row without allocating.
func (f *Full) RowInto(view *bitset.Set, v int32) { f.cur.rows.RowInto(view, int(v)) }

// Known returns |m_v| for the live state.
func (f *Full) Known(v int32) int { return int(f.cur.cnt[v]) }

// TotalKnown returns the total number of informed (node, message) pairs.
func (f *Full) TotalKnown() int64 { return f.total.Load() }

// Complete reports whether every node knows every message.
func (f *Full) Complete() bool { return f.total.Load() == int64(f.n)*int64(f.n) }

// InformedOf returns how many nodes know message m (O(n); tests and
// diagnostics only).
func (f *Full) InformedOf(m int32) int {
	c := 0
	for v := 0; v < f.n; v++ {
		if f.cur.rows.Row(v).Contains(int(m)) {
			c++
		}
	}
	return c
}

// CheckTotal recomputes the pair count, and in both buffers every row's
// count and word summary, from the matrices and reports whether they all
// match the incremental state. It also checks the lazy-buffer invariant:
// each row of the next state is a subset of the live row. Test hook; call
// it outside a round.
func (f *Full) CheckTotal() bool {
	if f.cur.rows.TotalCount() != f.total.Load() {
		return false
	}
	for v := 0; v < f.n; v++ {
		if !f.cur.check(v) || !f.next.check(v) ||
			!f.next.rows.Row(v).IsSubsetOf(f.cur.rows.Row(v)) {
			return false
		}
	}
	return true
}

// check reports whether row v's count and word summary match its bits.
func (b *buffer) check(v int) bool {
	row := b.rows.Row(v)
	mask := bitset.New(b.nz.Width())
	markWords(row, mask)
	return int(b.cnt[v]) == row.Count() && mask.Equal(b.nz.Row(v))
}

// Single tracks the spread of one message: which nodes are informed and
// when each became informed.
type Single struct {
	informed   []bool
	informedAt []int32
	count      int
}

// NewSingle returns a tracker with all n nodes uninformed.
func NewSingle(n int) *Single {
	s := &Single{
		informed:   make([]bool, n),
		informedAt: make([]int32, n),
	}
	for i := range s.informedAt {
		s.informedAt[i] = -1
	}
	return s
}

// Inform marks v informed at the given step (idempotent; the first step
// wins). Returns true if v was newly informed.
func (s *Single) Inform(v int32, step int32) bool {
	if s.informed[v] {
		return false
	}
	s.informed[v] = true
	s.informedAt[v] = step
	s.count++
	return true
}

// IsInformed reports whether v is informed.
func (s *Single) IsInformed(v int32) bool { return s.informed[v] }

// InformedAt returns the step at which v was informed, or -1.
func (s *Single) InformedAt(v int32) int32 { return s.informedAt[v] }

// Count returns the number of informed nodes.
func (s *Single) Count() int { return s.count }

// Complete reports whether all nodes are informed.
func (s *Single) Complete() bool { return s.count == len(s.informed) }

// N returns the number of nodes.
func (s *Single) N() int { return len(s.informed) }
