package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committed is the path of the committed record of a mode.
func committed(name string) string {
	return filepath.Join("..", "..", "results", "BENCH_"+name+".json")
}

// TestGate gates runs derived from the committed records against those
// records: each passes against itself, and fails once its gated metric
// moves just past its bound, its client count changes, or it shares no
// gated metric with the baseline. The scaling floor needs no baseline.
func TestGate(t *testing.T) {
	scaled := func(metric string, f float64) func(*record) {
		return func(r *record) { r.Metrics[metric] *= f }
	}
	scalingAt := func(cpus int, ratio float64) func(*record) {
		return func(r *record) {
			r.Host.NumCPU = cpus
			r.Metrics["scaling_4x_ratio"] = ratio
		}
	}
	for _, tc := range []struct {
		name       string
		mode       string
		edit       func(*record)
		noBaseline bool
		wantErr    string // substring of the expected error, "" = pass
		skips      int
	}{
		{name: "serve itself", mode: "serve", skips: 1}, // recorded on a 1-core host
		{name: "train itself", mode: "train"},
		{name: "scale itself", mode: "scale"},
		{name: "serve p99 x2", mode: "serve", edit: scaled("p99_ns", 2), skips: 1},
		{name: "serve p99 x2.01", mode: "serve", edit: scaled("p99_ns", 2.01), wantErr: "p99_ns regression"},
		{name: "train cold x2.01", mode: "train", edit: scaled("workers_1.cold_ns", 2.01), wantErr: "workers_1.cold_ns regression"},
		{name: "train other workers x3", mode: "train", edit: scaled("workers_8.cold_ns", 3)},
		{name: "scale 16k resident x1.5", mode: "scale", edit: scaled("items_16384.resident_bytes", 1.5)},
		{name: "scale 16k resident x1.51", mode: "scale", edit: scaled("items_16384.resident_bytes", 1.51),
			wantErr: "items_16384.resident_bytes regression"},
		{name: "scale 100k resident x1.51", mode: "scale", edit: scaled("items_100000.resident_bytes", 1.51),
			wantErr: "items_100000.resident_bytes regression"},
		{name: "scale one shared size", mode: "scale", edit: func(r *record) {
			for name := range r.Metrics {
				if !strings.HasPrefix(name, "items_16384.") {
					delete(r.Metrics, name)
				}
			}
		}},
		{name: "scale no shared size", mode: "scale", edit: func(r *record) {
			r.Metrics = map[string]float64{"items_999.resident_bytes": 1}
		}, wantErr: "shares no items_*.resident_bytes"},
		{name: "serve 2 clients", mode: "serve", edit: func(r *record) { r.Params.Clients = 2 },
			wantErr: "run used 2 client(s) but baseline ../../results/BENCH_serve.json was recorded with 1"},
		{name: "scaling floor skipped below 4 cpus", mode: "serve", edit: scalingAt(2, 0.5), skips: 1},
		{name: "scaling floor met at 4 cpus", mode: "serve", edit: scalingAt(4, 2.5)},
		{name: "scaling floor missed at 4 cpus", mode: "serve", edit: scalingAt(4, 2.49),
			wantErr: "scaling_4x_ratio is 2.49, gate requires at least 2.50"},
		{name: "scaling floor missed at 8 cpus", mode: "serve", edit: scalingAt(8, 1),
			wantErr: "scaling_4x_ratio is 1.00"},
		{name: "scaling floor without baseline", mode: "serve", edit: scalingAt(4, 1.2), noBaseline: true,
			wantErr: "scaling_4x_ratio is 1.20"},
		{name: "serve without sweep", mode: "serve", edit: func(r *record) { delete(r.Metrics, "scaling_4x_ratio") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := readRecord(committed(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(&run)
			}
			baseline := committed(tc.mode)
			if tc.noBaseline {
				baseline = ""
			}
			skipped, err := gate(run, baseline)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("gate error = %v, want one containing %q", err, tc.wantErr)
			}
			if err == nil && len(skipped) != tc.skips {
				t.Fatalf("skipped = %q, want %d skip(s)", skipped, tc.skips)
			}
		})
	}
}

// TestRecordRoundTrip: every committed record is in the writer's
// canonical form, and a fresh record written, read back and written
// again gives the same bytes.
func TestRecordRoundTrip(t *testing.T) {
	files, err := filepath.Glob(committed("*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed records: %v", err)
	}
	fresh := newRecord("fresh", runParams{Instance: "Univ-1 M.S. DS-CT", Clients: 2, DurationNs: 3e9})
	fresh.Metrics["p99_ns"] = 320403
	fresh.Metrics["req_per_s"] = 10373.167500962218
	fresh.Lists = map[string][]string{"mutex_top": {"a n=2", "b n=1"}}
	dir := t.TempDir()
	if err := writeRecord(dir, fresh); err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(dir, "BENCH_fresh.json"))
	for _, file := range files {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := readRecord(file)
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		if err := writeRecord(out, rec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, "BENCH_"+rec.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten record differs:\n%s\nwant:\n%s", file, got, want)
		}
	}
}
