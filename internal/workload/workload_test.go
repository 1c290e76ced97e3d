package workload

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

var objs = []string{"X0", "X1", "X2", "X3"}

func TestGeneratorMixFractions(t *testing.T) {
	g := NewGenerator(Mix{ReadFraction: 0.8, ReadWidth: 2, WriteWidth: 2, ZipfS: 0.9}, objs, 42)
	reads, writes := 0, 0
	for i := 0; i < 1000; i++ {
		txn := g.Next("c0")
		if txn.IsReadOnly() {
			reads++
			if len(txn.ReadSet) != 2 {
				t.Fatalf("read width = %d", len(txn.ReadSet))
			}
		} else {
			writes++
			if len(txn.WriteSet()) != 2 {
				t.Fatalf("write width = %d", len(txn.WriteSet()))
			}
		}
	}
	frac := float64(reads) / 1000
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("read fraction = %.2f, want ≈0.8", frac)
	}
	_ = writes
}

func TestValuesAreDistinct(t *testing.T) {
	g := NewGenerator(Balanced(), objs, 7)
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		txn := g.Next("c1")
		for _, w := range txn.Writes {
			key := w.Object + "=" + string(w.Value)
			if seen[key] {
				t.Fatalf("duplicate value %s", key)
			}
			seen[key] = true
		}
	}
}

func TestZipfSkewPrefersLowRanks(t *testing.T) {
	g := NewGenerator(Mix{ReadFraction: 0, WriteWidth: 1, ZipfS: 1.2}, objs, 11)
	counts := make(map[string]int)
	for i := 0; i < 2000; i++ {
		txn := g.NextSingleWrite("c0")
		counts[txn.Writes[0].Object]++
	}
	if counts["X0"] <= counts["X3"] {
		t.Fatalf("zipf skew not observed: %v", counts)
	}
}

func TestUniformWhenZipfZero(t *testing.T) {
	g := NewGenerator(Mix{ReadFraction: 0, WriteWidth: 1, ZipfS: 0}, objs, 13)
	counts := make(map[string]int)
	for i := 0; i < 4000; i++ {
		counts[g.NextSingleWrite("c0").Writes[0].Object]++
	}
	for _, o := range objs {
		if counts[o] < 700 || counts[o] > 1300 {
			t.Fatalf("uniform distribution off: %v", counts)
		}
	}
}

func TestWidthsClamped(t *testing.T) {
	g := NewGenerator(Mix{ReadFraction: 1, ReadWidth: 99}, objs, 17)
	txn := g.Next("c0")
	if len(txn.ReadSet) != len(objs) {
		t.Fatalf("read width not clamped: %d", len(txn.ReadSet))
	}
}

func TestDistinctObjectsPerTxn(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGenerator(Mix{ReadFraction: 0.5, ReadWidth: 3, WriteWidth: 3, ZipfS: 1.5}, objs, seed)
		for i := 0; i < 20; i++ {
			txn := g.Next("c")
			seen := map[string]bool{}
			for _, o := range txn.Objects() {
				if seen[o] {
					return false
				}
				seen[o] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPickObjectMatchesLinearScan holds the binary search over the
// cumulative weights to the linear scan it replaced: the first object
// whose cumulative weight reaches the draw, the last if none does.
func TestPickObjectMatchesLinearScan(t *testing.T) {
	many := make([]string, 64)
	for i := range many {
		many[i] = fmt.Sprintf("X%d", i)
	}
	for _, seed := range []int64{1, 42, 2718} {
		for _, zipf := range []float64{0, 0.99} {
			mix := Mix{ReadFraction: 0.5, ZipfS: zipf}
			g, ref := NewGenerator(mix, many, seed), NewGenerator(mix, many, seed)
			for i := 0; i < 100_000; i++ {
				u := ref.rng.Float64()
				want := ref.objects[len(ref.objects)-1]
				for j, c := range ref.weights {
					if u <= c {
						want = ref.objects[j]
						break
					}
				}
				if got := g.pickObject(); got != want {
					t.Fatalf("seed %d zipf %v draw %d: pickObject = %s, scan %s", seed, zipf, i, got, want)
				}
			}
		}
	}
}

// TestValueMatchesFormat: a written value is the bytes of
// fmt.Sprintf("v-%s-%d-%s", client, seq, object).
func TestValueMatchesFormat(t *testing.T) {
	g := NewGenerator(Balanced(), objs, 3)
	for _, client := range []string{"c0", "c17", "", "client-with-dashes"} {
		for i := 0; i < 200; i++ {
			txn := g.Next(client)
			for _, w := range txn.Writes {
				if want := fmt.Sprintf("v-%s-%d-%s", client, g.seq, w.Object); string(w.Value) != want {
					t.Fatalf("value %q, want %q", w.Value, want)
				}
			}
			if w := g.NextSingleWrite(client).Writes[0]; string(w.Value) != fmt.Sprintf("v-%s-%d-%s", client, g.seq, w.Object) {
				t.Fatalf("single write value %q at seq %d", w.Value, g.seq)
			}
		}
	}
}

// TestNextForSingleWriteMatchesNextThenSingle: for a system without
// multi-object writes, NextFor gives the transactions the driver used to
// build as Next, replaced by NextSingleWrite when Next wrote, and leaves
// the generator where that pair leaves it.
func TestNextForSingleWriteMatchesNextThenSingle(t *testing.T) {
	for _, mix := range []Mix{Balanced(), ReadHeavy(), {ReadFraction: 0.2, ReadWidth: 3, WriteWidth: 4, ZipfS: 0.99}} {
		g, ref := NewGenerator(mix, objs, 9), NewGenerator(mix, objs, 9)
		for i := 0; i < 10_000; i++ {
			want := ref.Next("c3")
			if !want.IsReadOnly() {
				want = ref.NextSingleWrite("c3")
			}
			if got := g.NextFor("c3", false); !reflect.DeepEqual(got, want) {
				t.Fatalf("mix %+v draw %d: NextFor = %v, Next then NextSingleWrite %v", mix, i, got, want)
			}
		}
		if g.seq != ref.seq || g.rng.Uint64() != ref.rng.Uint64() {
			t.Fatalf("mix %+v: generators diverged after 10k draws", mix)
		}
	}
}
