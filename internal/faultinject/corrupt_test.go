package faultinject_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"bytecard/internal/core"
	"bytecard/internal/datagen"
	"bytecard/internal/faultinject"
	"bytecard/internal/modelforge"
	"bytecard/internal/modelstore"
)

// trainedStore trains every model family twice into one store, so each
// artifact has a fallback generation behind its newest.
func trainedStore(t *testing.T) (string, *modelstore.Store) {
	t.Helper()
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.Toy(datagen.Config{Scale: 0.5, Seed: 23})
	svc := modelforge.New("toy", ds.DB, ds.Schema, store, modelforge.Config{
		SampleRows: 600, BucketCount: 12,
		Seed: 1,
	})
	for round := 0; round < 2; round++ {
		if _, err := svc.TrainAll(); err != nil {
			t.Fatalf("train round %d: %v", round, err)
		}
	}
	// The base RBX model is workload-independent and trains only when
	// missing, so the rounds above leave it a single generation; re-publish
	// it to give it a fallback too.
	a, err := store.Get(modelforge.RBXBaseName)
	if err != nil {
		t.Fatal(err)
	}
	a.Timestamp = a.Timestamp.Add(time.Hour)
	if err := store.Put(a); err != nil {
		t.Fatal(err)
	}
	return dir, store
}

// manifestOfKind returns one stored manifest of the given kind.
func manifestOfKind(t *testing.T, store *modelstore.Store, kind core.ModelKind) modelstore.Manifest {
	t.Helper()
	list, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range list {
		if m.Kind == kind {
			return m
		}
	}
	t.Fatalf("no %s artifact in store", kind)
	return modelstore.Manifest{}
}

// TestCorruptedArtifactFallback is the satellite's table: for every model
// kind the store serves, corrupt the newest generation on disk (torn upload
// via Truncate, bit rot via Garble) and assert the load path quarantines the
// bad file, falls back to the last-known-good generation, and surfaces the
// incident through the obs counters and Health.
func TestCorruptedArtifactFallback(t *testing.T) {
	cases := []struct {
		kind    core.ModelKind
		corrupt func([]byte) []byte
	}{
		{core.KindBN, func(b []byte) []byte { return faultinject.Truncate(b, 0.4) }},
		{core.KindFactorJoin, func(b []byte) []byte { return faultinject.Garble(b, 7) }},
		{core.KindRBX, func(b []byte) []byte { return faultinject.Truncate(b, 0.7) }},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			dir, store := trainedStore(t)
			m := manifestOfKind(t, store, tc.kind)
			if len(m.Generations) < 2 {
				t.Fatalf("%s: %d generations, need a fallback behind the newest", m.Name, len(m.Generations))
			}
			newest := m.Generations[0]
			path := filepath.Join(dir, newest.File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			got, err := store.Get(m.Name)
			if err != nil {
				t.Fatalf("get %s with corrupt newest generation: %v", m.Name, err)
			}
			if got.Kind != tc.kind {
				t.Errorf("served kind = %s, want %s", got.Kind, tc.kind)
			}
			// The survivor is the older generation, verified against its own
			// checksum and served with its own metadata.
			want := m.Generations[1]
			if int64(len(got.Data)) != want.SizeBytes {
				t.Errorf("served %d bytes, fallback generation has %d", len(got.Data), want.SizeBytes)
			}
			if !got.Timestamp.Equal(want.Timestamp) {
				t.Errorf("served timestamp %v, want fallback's %v", got.Timestamp, want.Timestamp)
			}
			// The bad generation is quarantined, not deleted, for forensics.
			if _, err := os.Stat(filepath.Join(dir, "quarantine", newest.File)); err != nil {
				t.Errorf("corrupt generation not quarantined: %v", err)
			}
			snap := store.Obs().Snapshot()
			if snap.Corruptions != 1 || snap.Quarantines != 1 || snap.Fallbacks != 1 {
				t.Errorf("obs = %+v, want one corruption/quarantine/fallback", snap)
			}
			h := store.Health()
			if len(h.Degraded) != 1 || h.Degraded[0] != m.Name {
				t.Errorf("health degraded = %v, want [%s]", h.Degraded, m.Name)
			}
			// Every other kind still loads clean.
			for _, other := range cases {
				if other.kind == tc.kind {
					continue
				}
				om := manifestOfKind(t, store, other.kind)
				if _, err := store.Get(om.Name); err != nil {
					t.Errorf("untouched %s failed to load: %v", om.Name, err)
				}
			}
			if snap := store.Obs().Snapshot(); snap.Corruptions != 1 {
				t.Errorf("clean loads re-flagged corruption: %+v", snap)
			}
		})
	}
}
