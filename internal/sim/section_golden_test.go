package sim

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tripwire/internal/snapshot"
)

// sectionGoldenPath pins what Checkpoint stores for every attested section
// of the seed-42 small pilot: one line per checkpoint and section, holding
// the progress image verbatim and every other section's uvarint(length)
// followed by SHA-256, all in hex. A checkpoint written by an older build
// resumes only if these bytes hold, so any change to them is a change to
// the checkpoint format and needs a snapshot.Version bump.
const sectionGoldenPath = "testdata/checkpoint_sections.golden"

// sectionGoldenLines renders one run's checkpoints in the golden format:
// the checkpoint written after every 8th completed wave, then one taken at
// the end of the run.
func sectionGoldenLines(t *testing.T, workers, budget int) string {
	t.Helper()
	cfg := SmallConfig()
	cfg.Workers = workers
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 8
	if budget > 0 {
		cfg.LogResidentBudget = budget
		cfg.LogSpillDir = t.TempDir()
	}
	p := NewPilot(cfg)
	if err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if budget > 0 && p.Provider.SpilledSegments() == 0 {
		t.Fatal("the resident budget never forced a spill, so no checkpoint read the cold tier")
	}
	var sb strings.Builder
	add := func(label string, f *snapshot.File) {
		for _, name := range attested {
			data, ok := f.Section(name)
			if !ok {
				t.Fatalf("%s: no %q section", label, name)
			}
			fmt.Fprintf(&sb, "%s %s %s\n", label, name, hex.EncodeToString(data))
		}
	}
	files := checkpointFiles(t, cfg.CheckpointDir)
	if len(files) == 0 {
		t.Fatal("no wave checkpoints written")
	}
	for _, file := range files {
		f, err := snapshot.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		add(strings.TrimSuffix(filepath.Base(file), ".twsnap"), f)
	}
	f, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	add("end", f)
	return sb.String()
}

// TestCheckpointSectionGolden: the attested sections a checkpoint stores
// are byte-identical to the pinned ones at every 8th wave and at the end,
// with the login log all resident or spilled past a 64-event budget, at 1
// and 4 workers. Set UPDATE_GOLDEN=1 to regenerate the file.
func TestCheckpointSectionGolden(t *testing.T) {
	if snapshot.Version != 7 {
		t.Fatalf("snapshot.Version = %d: regenerate %s for the new format and update this check", snapshot.Version, sectionGoldenPath)
	}
	for _, tc := range []struct{ workers, budget int }{{1, 0}, {4, 0}, {1, 64}, {4, 64}} {
		t.Run(fmt.Sprintf("workers=%d/budget=%d", tc.workers, tc.budget), func(t *testing.T) {
			got := sectionGoldenLines(t, tc.workers, tc.budget)
			if os.Getenv("UPDATE_GOLDEN") != "" && tc.workers == 1 && tc.budget == 0 {
				if err := os.WriteFile(sectionGoldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(sectionGoldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs from %s (set UPDATE_GOLDEN=1 to regenerate):\n got %s\nwant %s", i+1, sectionGoldenPath, gl[i], wl[i])
					}
				}
				t.Fatalf("%d lines, %s has %d", len(gl), sectionGoldenPath, len(wl))
			}
		})
	}
}

// TestCheckpointIgnoresRuntimeKnobs: one study's checkpoints are
// byte-identical whatever runtime knobs it ran with — here the worker
// count, the login log's resident budget, and checkpoint and spill
// directories whose paths differ in length — so neither a checkpoint's
// bytes nor its size depend on where it was written.
func TestCheckpointIgnoresRuntimeKnobs(t *testing.T) {
	run := func(workers, budget int, dir string) map[string][]byte {
		t.Helper()
		cfg := SmallConfig()
		cfg.Workers = workers
		cfg.CheckpointDir = filepath.Join(dir, "ckpt")
		cfg.CheckpointEvery = 8
		if budget > 0 {
			cfg.LogResidentBudget = budget
			cfg.LogSpillDir = filepath.Join(dir, "spill")
		}
		if err := NewPilot(cfg).RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, file := range checkpointFiles(t, cfg.CheckpointDir) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(file)] = data
		}
		if len(out) == 0 {
			t.Fatal("no wave checkpoints written")
		}
		return out
	}
	short := run(1, 0, t.TempDir())
	long := run(4, 64, filepath.Join(t.TempDir(), "a-much-longer-directory-name", "nested"))
	if len(short) != len(long) {
		t.Fatalf("%d and %d checkpoints written", len(short), len(long))
	}
	for name, data := range short {
		if !bytes.Equal(long[name], data) {
			t.Errorf("%s: %d bytes under the short path, %d under the long one", name, len(data), len(long[name]))
		}
	}
}
