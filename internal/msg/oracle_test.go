package msg

import (
	"fmt"
	"testing"

	"gossip/internal/bitset"
	"gossip/internal/par"
	"gossip/internal/xrand"
)

// naiveFull is the oracle for Full: the plain double buffer, which copies
// the whole live matrix at BeginRound and recounts everything on demand.
// It shares Full's union kernel, which kernel_test.go in package bitset
// checks against a plain loop.
type naiveFull struct {
	n         int
	cur, next *bitset.Matrix
}

func newNaiveFull(n int) *naiveFull {
	o := &naiveFull{n: n, cur: bitset.NewMatrix(n, n), next: bitset.NewMatrix(n, n)}
	for v := 0; v < n; v++ {
		o.cur.Row(v).Add(v)
	}
	return o
}

func (o *naiveFull) BeginRound() { o.next.CopyFrom(o.cur) }
func (o *naiveFull) EndRound()   { o.cur, o.next = o.next, o.cur }

func (o *naiveFull) Transfer(src, dst int32) int {
	return o.next.UnionRow(int(dst), o.cur, int(src))
}

func (o *naiveFull) TransferSet(s *bitset.Set, dst int32) int {
	return o.next.UnionSet(int(dst), s)
}

func (o *naiveFull) MergeNow(s *bitset.Set, dst int32) int {
	return o.cur.UnionSet(int(dst), s)
}

// agree reports the first difference between f's live state and the
// oracle's, or "" if there is none.
func agree(f *Full, o *naiveFull) string {
	if f.TotalKnown() != o.cur.TotalCount() {
		return fmt.Sprintf("TotalKnown %d, oracle %d", f.TotalKnown(), o.cur.TotalCount())
	}
	if want := o.cur.TotalCount() == int64(o.n)*int64(o.n); f.Complete() != want {
		return fmt.Sprintf("Complete %v, oracle %v", f.Complete(), want)
	}
	for v := int32(0); int(v) < o.n; v++ {
		if !f.Row(v).Equal(o.cur.Row(int(v))) {
			return fmt.Sprintf("row %d differs", v)
		}
		if f.Known(v) != o.cur.Row(int(v)).Count() {
			return fmt.Sprintf("Known(%d) = %d, oracle %d", v, f.Known(v), o.cur.Row(int(v)).Count())
		}
	}
	if !f.CheckTotal() {
		return "CheckTotal failed"
	}
	return ""
}

// randomPacket returns a set of width n: sparse, dense or empty.
func randomPacket(rng *xrand.RNG, n int) *bitset.Set {
	s := bitset.New(n)
	switch rng.Intn(3) {
	case 0:
		for i := 0; i < 1+rng.Intn(3); i++ {
			s.Add(rng.Intn(n))
		}
	case 1:
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
	}
	return s
}

// TestFullMatchesOracle runs random round sequences on Full and on the
// copy-everything oracle and requires the same answers after every round.
// Rounds mix Transfer, TransferSet and self-transfers; MergeNow runs
// between rounds; some nodes receive nothing for several rounds, as
// crashed nodes do, so their next-state rows go stale and are seeded by
// EndRound. The sizes put the word summary in one word (n <= 4096) and in
// two (n = 4097), and the row width on and off word boundaries.
func TestFullMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4097} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.New(xrand.SeedFor(seed, uint64(n)))
			f, o := NewFull(n), newNaiveFull(n)
			crashedUntil := make([]int, n)
			for r := 0; r < 40; r++ {
				for v := range crashedUntil {
					if rng.Intn(50) == 0 {
						crashedUntil[v] = r + 1 + rng.Intn(4)
					}
				}
				f.BeginRound()
				o.BeginRound()
				for k := 0; k < n; k++ {
					dst := int32(rng.Intn(n))
					if crashedUntil[dst] > r {
						continue
					}
					var got, want int
					switch op := rng.Intn(10); {
					case op == 0:
						got, want = f.Transfer(dst, dst), o.Transfer(dst, dst)
					case op == 1:
						p := randomPacket(rng, n)
						got, want = f.TransferSet(p, dst), o.TransferSet(p, dst)
					default:
						src := int32(rng.Intn(n))
						got, want = f.Transfer(src, dst), o.Transfer(src, dst)
					}
					if got != want {
						t.Fatalf("n=%d seed=%d round %d: added %d, oracle %d", n, seed, r, got, want)
					}
				}
				f.EndRound()
				o.EndRound()
				if msg := agree(f, o); msg != "" {
					t.Fatalf("n=%d seed=%d after round %d: %s", n, seed, r, msg)
				}
				if rng.Intn(3) == 0 {
					for k := 0; k < 1+n/16; k++ {
						dst := int32(rng.Intn(n))
						p := randomPacket(rng, n)
						if got, want := f.MergeNow(p, dst), o.MergeNow(p, dst); got != want {
							t.Fatalf("n=%d seed=%d MergeNow added %d, oracle %d", n, seed, got, want)
						}
					}
					if msg := agree(f, o); msg != "" {
						t.Fatalf("n=%d seed=%d after MergeNow in round %d: %s", n, seed, r, msg)
					}
				}
			}
			if !f.Complete() { // so transfers into full rows were exercised
				t.Errorf("n=%d seed=%d: not complete after 40 rounds", n, seed)
			}
		}
	}
}

// TestShardedTransferRace drives receiver-sharded Transfer through
// par.For, as the synchronous transport does, and checks the result
// against the oracle fed the same transfers in order. Under -race it
// covers the per-row counts and the lazy seeding of the next state.
func TestShardedTransferRace(t *testing.T) {
	const n, perNode, rounds = 2048, 2, 20
	f, o := NewFull(n), newNaiveFull(n)
	srcOf := func(r, dst, k int) int32 {
		return int32(xrand.New(xrand.SeedFor(9, uint64(r), uint64(dst), uint64(k))).Intn(n))
	}
	for r := 0; r < rounds; r++ {
		f.BeginRound()
		par.For(n, func(lo, hi int) {
			for dst := lo; dst < hi; dst++ {
				if dst%7 == r%7 {
					continue // receives nothing this round
				}
				for k := 0; k < perNode; k++ {
					f.Transfer(srcOf(r, dst, k), int32(dst))
				}
			}
		})
		f.EndRound()
		o.BeginRound()
		for dst := 0; dst < n; dst++ {
			if dst%7 == r%7 {
				continue
			}
			for k := 0; k < perNode; k++ {
				o.Transfer(srcOf(r, dst, k), int32(dst))
			}
		}
		o.EndRound()
		if msg := agree(f, o); msg != "" {
			t.Fatalf("after round %d: %s", r, msg)
		}
	}
	if !f.Complete() {
		t.Errorf("not complete after %d rounds: %d of %d pairs", rounds, f.TotalKnown(), n*n)
	}
}
