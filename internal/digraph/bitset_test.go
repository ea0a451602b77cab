package digraph

import "testing"

func TestLaneBitsClearList(t *testing.T) {
	// One 64-lane word per vertex: the only layout LaneBits has.
	t.Run("nw=1", func(t *testing.T) {
		b := NewLaneBits(8)
		b.Words[2] |= 0b101
		b.Words[5] |= 1 << 63
		b.ClearList([]VID{2, 5, 3}) // clearing an untouched vertex is a no-op
		for i, w := range b.Words {
			if w != 0 {
				t.Fatalf("word %d = %b after ClearList, want 0", i, w)
			}
		}
	})
}

func TestLaneBitsClearListBulkCutover(t *testing.T) {
	// A touched list past the crossover takes the bulk clear() path. Owners
	// guarantee the list covers every nonzero word, so the observable
	// contract is the same on both paths: every word is zero afterwards.
	b := NewLaneBits(16)
	verts := make([]VID, 0, 16)
	for v := range 16 {
		b.Words[v] = 1 << uint(v)
		verts = append(verts, VID(v))
	}
	b.ClearList(verts) // 16 >= 16: bulk path
	for i, w := range b.Words {
		if w != 0 {
			t.Fatalf("word %d nonzero after bulk ClearList", i)
		}
	}
}

func TestLaneFrontierPushDedupe(t *testing.T) {
	f := NewLaneFrontier(6)
	f.Push(3, 0b01)
	f.Push(3, 0b10) // second push merges, no duplicate list entry
	f.Push(1, 0b100)
	f.Push(2, 0) // empty lane word: no-op
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (vertex 3 deduplicated, empty push dropped)", f.Len())
	}
	if got := f.Bits.Words[3]; got != 0b11 {
		t.Fatalf("lanes of vertex 3 = %b, want 11", got)
	}
	f.Clear()
	if f.Len() != 0 || f.Bits.Words[3] != 0 || f.Bits.Words[1] != 0 {
		t.Fatal("Clear left state behind")
	}
	// Reusable after Clear.
	f.Push(3, 0b1000)
	if f.Len() != 1 || f.Bits.Words[3] != 0b1000 {
		t.Fatal("frontier not reusable after Clear")
	}
}

// BenchmarkLaneBitsClear measures the ClearList crossover between the
// touched-list path and the bulk clear() path that clearListDivisor pins.
// List sizes are swept as fractions of n; the "hot" variants first write
// every listed entry — the filters' actual pattern, where ClearList runs
// right after a sweep that populated those exact lines — while the "cold"
// variants clear with no prior writes in the measured loop. Cold scattered
// clears lose to memclr from about n/8; hot ones break even there and only
// clearly lose near n. The production divisor sits at the conservative end
// of that range because in situ the memclr additionally evicts the sweep's
// other hot state, which no isolated micro-bench can price (see
// clearListDivisor).
func BenchmarkLaneBitsClear(b *testing.B) {
	const n = 1 << 16
	fracs := []struct {
		name string
		den  int
	}{{"n_64", 64}, {"n_16", 16}, {"n_8", 8}, {"n_4", 4}, {"n_1", 1}}
	for _, f := range fracs {
		verts := make([]VID, n/f.den)
		for i := range verts {
			// Spread the touched vertices across the slab the way a BFS
			// frontier would, not as one dense prefix.
			verts[i] = VID(uint64(i) * 2654435761 % uint64(n))
		}
		b.Run("cold-list/"+f.name, func(b *testing.B) {
			bs := NewLaneBits(n)
			for b.Loop() {
				for _, v := range verts {
					bs.Words[v] = 0
				}
			}
		})
		b.Run("hot-list/"+f.name, func(b *testing.B) {
			bs := NewLaneBits(n)
			for b.Loop() {
				for _, v := range verts {
					bs.Words[v] = 1
				}
				for _, v := range verts {
					bs.Words[v] = 0
				}
			}
		})
		b.Run("hot-bulk/"+f.name, func(b *testing.B) {
			bs := NewLaneBits(n)
			for b.Loop() {
				for _, v := range verts {
					bs.Words[v] = 1
				}
				clear(bs.Words)
			}
		})
	}
}
