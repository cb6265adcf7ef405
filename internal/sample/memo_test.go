package sample

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bytecard/internal/datagen"
	"bytecard/internal/storage"
	"bytecard/internal/types"
)

// countedProfile is the whole-sample profile of cols counted afresh over
// every row, bypassing the memo.
func countedProfile(t *testing.T, f *Frame, cols ...string) Profile {
	t.Helper()
	var idx []int
	for _, c := range cols {
		j := f.tab.ColIndex(c)
		if j < 0 {
			t.Fatalf("unknown column %s", c)
		}
		idx = append(idx, j)
	}
	all, err := f.Select(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ProfileFromCounts(f.count(all, idx, new(scratch)), len(all), f.pop)
}

// bitsEqual reports whether two profiles are equal bit for bit.
func bitsEqual(a, b Profile) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.SampleRows, b.SampleRows) || !same(a.SampleNDV, b.SampleNDV) || !same(a.PopRows, b.PopRows) || len(a.Freq) != len(b.Freq) {
		return false
	}
	for i := range a.Freq {
		if !same(a.Freq[i], b.Freq[i]) {
			return false
		}
	}
	return true
}

// memoLen is the number of column sets f remembers.
func memoLen(f *Frame) int {
	f.wholeMu.Lock()
	defer f.wholeMu.Unlock()
	return len(f.whole)
}

// TestWholeProfileMatchesCount: on every frame the loader would draw from
// the AEOLUS and STATS datasets at data seeds 1 and 2, every 1–3-column
// set's remembered profile — asked for in reverse order with the first
// column repeated — is bit-identical to counting every row afresh, and so
// is the answer that filled the memo.
func TestWholeProfileMatchesCount(t *testing.T) {
	scale := 0.2
	if testing.Short() {
		scale = 0.01
	}
	for _, name := range []string{"aeolus", "stats"} {
		for _, seed := range []int64{1, 2} {
			ds, err := datagen.ByName(name, datagen.Config{Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range ds.DB.TableNames() {
				base := ds.DB.Table(tn)
				f := SampleTable(base, 20000, seed^int64(base.NumRows()))
				var names []string
				for j := 0; j < f.tab.NumCols(); j++ {
					names = append(names, f.tab.Col(j).Name())
				}
				checked := 0
				for _, cols := range columnSets(names, 3) {
					if memoLen(f) == memoSets {
						f.whole = nil
					}
					want := countedProfile(t, f, cols...)
					filled, err := f.ProfileOf(nil, cols...)
					if err != nil {
						t.Fatal(err)
					}
					again := append(slices.Clone(cols), cols[0])
					slices.Reverse(again)
					hit, err := f.ProfileOf(nil, again...)
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(filled, want) || !bitsEqual(hit, want) {
						t.Fatalf("%s seed %d %s%v: filled ndv %g, hit %v ndv %g, counted ndv %g",
							name, seed, tn, cols, filled.SampleNDV, again, hit.SampleNDV, want.SampleNDV)
					}
					checked++
				}
				if checked == 0 {
					t.Fatalf("%s seed %d: table %s has no columns", name, seed, tn)
				}
			}
		}
	}
}

// columnSets lists every set of 1..k of names, each in ascending order.
func columnSets(names []string, k int) [][]string {
	var out [][]string
	var walk func(from int, cur []string)
	walk = func(from int, cur []string) {
		if len(cur) > 0 {
			out = append(out, slices.Clone(cur))
		}
		if len(cur) == k {
			return
		}
		for j := from; j < len(names); j++ {
			walk(j+1, append(cur, names[j]))
		}
	}
	walk(0, nil)
	return out
}

// TestProfileDependsOnColumnSet is the premise the memo keys on: on fresh
// frames (nothing remembered), every order of a column set, with or
// without duplicates, counts the identical unfiltered profile.
func TestProfileDependsOnColumnSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := testTable(rng, 2*storage.BlockSize+17)
	ids := rng.Perm(base.NumRows())[:base.NumRows()*2/3]
	sel := make([]int32, len(ids))
	for i, id := range ids {
		sel[i] = int32(id)
	}
	for iter := 0; iter < 40; iter++ {
		perm := rng.Perm(len(testColumns))
		var cols []string
		for _, c := range perm[:1+rng.Intn(4)] {
			cols = append(cols, testColumns[c].Name)
		}
		want, err := newFrame(base, sel, 50000).ProfileOf(nil, cols...)
		if err != nil {
			t.Fatal(err)
		}
		variant := slices.Clone(cols)
		rng.Shuffle(len(variant), func(i, j int) { variant[i], variant[j] = variant[j], variant[i] })
		variant = append(variant, cols[rng.Intn(len(cols))])
		got, err := newFrame(base, sel, 50000).ProfileOf(nil, variant...)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%v: ndv %g, %v: ndv %g", cols, want.SampleNDV, variant, got.SampleNDV)
		}
	}
}

// TestWholeProfileCap: a frame remembers at most memoSets column sets and
// answers every set past them exactly, by counting.
func TestWholeProfileCap(t *testing.T) {
	f := wideFrame(10, 300)
	var names []string
	for j := 0; j < 10; j++ {
		names = append(names, fmt.Sprintf("c%d", j))
	}
	sets := columnSets(names, 4)
	if len(sets) <= memoSets {
		t.Fatalf("only %d sets, want more than %d", len(sets), memoSets)
	}
	for round := 0; round < 2; round++ {
		for _, cols := range sets {
			got, err := f.ProfileOf(nil, cols...)
			if err != nil {
				t.Fatal(err)
			}
			if want := countedProfile(t, f, cols...); !bitsEqual(got, want) {
				t.Fatalf("round %d %v: ndv %g, counted %g", round, cols, got.SampleNDV, want.SampleNDV)
			}
		}
		if n := memoLen(f); n != memoSets {
			t.Fatalf("round %d: %d sets remembered, want %d", round, n, memoSets)
		}
	}
}

// TestWideFrameProfiles: a frame of more than 64 columns remembers nothing
// and still answers, including for columns past the 64th.
func TestWideFrameProfiles(t *testing.T) {
	f := wideFrame(70, 200)
	for _, cols := range [][]string{{"c65"}, {"c1", "c65"}, {"c69", "c0", "c64"}, {"c3"}} {
		for i := 0; i < 2; i++ {
			got, err := f.ProfileOf(nil, cols...)
			if err != nil {
				t.Fatal(err)
			}
			if want := countedProfile(t, f, cols...); !bitsEqual(got, want) {
				t.Fatalf("%v: ndv %g, counted %g", cols, got.SampleNDV, want.SampleNDV)
			}
		}
	}
	if n := memoLen(f); n != 0 {
		t.Fatalf("a %d-column frame remembered %d sets", f.tab.NumCols(), n)
	}
}

// TestWholeProfileCopyOut: a caller that writes into a returned Freq
// changes neither the memo nor the next answer.
func TestWholeProfileCopyOut(t *testing.T) {
	f := makeFrame(100)
	first, err := f.ProfileOf(nil, "a")
	if err != nil {
		t.Fatal(err)
	}
	want := first.clone()
	for i := range first.Freq {
		first.Freq[i] = -1
	}
	for i := 0; i < 2; i++ {
		p, err := f.ProfileOf(nil, "a")
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(p, want) {
			t.Fatalf("call %d after a caller wrote its copy: Freq[9] = %g, want %g", i, p.Freq[9], want.Freq[9])
		}
		p.Freq[9] = 1e9
	}
}

// TestWholeProfileConcurrent fills one frame's memo from eight goroutines
// over overlapping sets (run under -race): every answer equals the count.
func TestWholeProfileConcurrent(t *testing.T) {
	f := wideFrame(6, 500)
	sets := columnSets([]string{"c0", "c1", "c2", "c3", "c4", "c5"}, 3)
	want := make([]Profile, len(sets))
	for i, cols := range sets {
		want[i] = countedProfile(t, f, cols...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sets {
				k := (g*7 + i) % len(sets)
				p, err := f.ProfileOf(nil, sets[k]...)
				if err != nil || !bitsEqual(p, want[k]) {
					t.Errorf("goroutine %d: %v differs (err %v)", g, sets[k], err)
					return
				}
				p.Freq[0] = -1
			}
		}(g)
	}
	wg.Wait()
}

// wideFrame is a frame over all n rows of a table of ncols int columns
// c0.., column j holding i mod (j+2).
func wideFrame(ncols, n int) *Frame {
	specs := make([]storage.ColumnSpec, ncols)
	for j := range specs {
		specs[j] = storage.ColumnSpec{Name: fmt.Sprintf("c%d", j), Kind: types.KindInt64}
	}
	b := storage.NewBuilder("w", specs)
	ids := make([]int32, n)
	row := make([]types.Datum, ncols)
	for i := range ids {
		for j := range row {
			row[j] = types.Int(int64(i % (j + 2)))
		}
		b.Append(row)
		ids[i] = int32(i)
	}
	return newFrame(b.Build(), ids, int64(n)*10)
}
