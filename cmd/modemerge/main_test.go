package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// TestCornersOutputGolden pins every file a -corners run writes: the
// merged mode and one deployment per corner. The goldens were captured
// before the CLI read its corner file straight into library corners.
func TestCornersOutputGolden(t *testing.T) {
	out := t.TempDir()
	sdcs := []string{filepath.Join("testdata", "func.sdc"), filepath.Join("testdata", "test.sdc")}
	err := run(context.Background(), filepath.Join("testdata", "quick.v"), "", "", out, "",
		filepath.Join("testdata", "corners.json"), 0.05, 1, 1, true, true, false, false, sdcs)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "corners_golden")
	got, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		os.RemoveAll(golden)
		os.MkdirAll(golden, 0o755)
		for _, e := range got {
			b, _ := os.ReadFile(filepath.Join(out, e.Name()))
			if err := os.WriteFile(filepath.Join(golden, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrote %d files, golden has %d", len(got), len(want))
	}
	for i, e := range want {
		if got[i].Name() != e.Name() {
			t.Fatalf("file %d = %s, golden %s", i, got[i].Name(), e.Name())
		}
		g, _ := os.ReadFile(filepath.Join(out, e.Name()))
		w, _ := os.ReadFile(filepath.Join(golden, e.Name()))
		if string(g) != string(w) {
			t.Errorf("%s drifted:\n got: %q\nwant: %q", e.Name(), g, w)
		}
	}
}

// TestCornersRejectUnknownField checks that a -corners file with a
// misspelled corner field fails, naming the file, instead of merging
// that corner at nominal delays.
func TestCornersRejectUnknownField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`[{"name":"tc"},{"name":"wc","delay_scal":1.2}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	sdcs := []string{filepath.Join("testdata", "func.sdc"), filepath.Join("testdata", "test.sdc")}
	err := run(context.Background(), filepath.Join("testdata", "quick.v"), "", "", t.TempDir(), "",
		path, 0.05, 1, 1, false, true, false, false, sdcs)
	if err == nil {
		t.Fatal("a corner file with an unknown field was accepted")
	}
	for _, want := range []string{path, "delay_scal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := loadCorners(filepath.Join("testdata", "corners.json")); err != nil {
		t.Errorf("the golden corner file is rejected: %v", err)
	}
}
