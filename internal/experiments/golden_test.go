package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/rlplanner/rlplanner/internal/stats"
)

// goldenExperiment renders one paper experiment's score tables.
type goldenExperiment struct {
	id  string
	run func(Config) ([]*stats.Table, error)
}

// sweepTables adapts a sweep runner to goldenExperiment.run.
func sweepTables(run func(Config) ([]*SweepResult, error)) func(Config) ([]*stats.Table, error) {
	return func(cfg Config) ([]*stats.Table, error) {
		results, err := run(cfg)
		if err != nil {
			return nil, err
		}
		tables := make([]*stats.Table, len(results))
		for i, r := range results {
			tables[i] = r.Render()
		}
		return tables, nil
	}
}

// goldenExperiments lists every experiment whose tables hold only
// scores: Fig 2 and the ablation table also print timings.
func goldenExperiments() []goldenExperiment {
	fig1 := func(run func(Config) ([]Fig1Row, error)) func(Config) ([]*stats.Table, error) {
		return func(cfg Config) ([]*stats.Table, error) {
			rows, err := run(cfg)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{Fig1Table(rows, "")}, nil
		}
	}
	transfer := func(run func(Config) ([]*TransferCase, error)) func(Config) ([]*stats.Table, error) {
		return func(cfg Config) ([]*stats.Table, error) {
			cases, err := run(cfg)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{TransferTable(cases, "")}, nil
		}
	}
	return []goldenExperiment{
		{"fig1a", fig1(Fig1Courses)},
		{"fig1b", fig1(Fig1Trips)},
		{"tab4", func(cfg Config) ([]*stats.Table, error) {
			r, err := Table4(cfg)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{Table4Table(r)}, nil
		}},
		{"tab5", transfer(Table5)},
		{"tab7", transfer(Table7)},
		{"tab8", func(cfg Config) ([]*stats.Table, error) {
			rows, err := Table8(cfg)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{Table8Table(rows)}, nil
		}},
		{"tab9", sweepTables(Table9)},
		{"tab10", sweepTables(Table10)},
		{"tab11", sweepTables(Table11)},
		{"tab12", sweepTables(Table12)},
		{"tab13", sweepTables(Table13)},
		{"tab14", sweepTables(Table14)},
		{"tab15", sweepTables(Table15)},
		{"tab16", sweepTables(Table16)},
	}
}

// TestExperimentsGolden pins the scores of the paper's experiments in
// the harness's -quick shape (3 runs, 150 episodes): a SHA-256 of each
// experiment's rendered tables. A change that moves any cell fails here
// and prints the tables; record a new digest only for a deliberate
// change, and say which cells moved.
func TestExperimentsGolden(t *testing.T) {
	// Table XV's Paris d = 4 cells must read 3.74 / 4.24 / 3.74, walked
	// in the d = 4 environment; d = 5's are 4.17 / 3.98 / 4.17.
	want := map[string]string{
		"fig1a": "5c7cfd97d0f2bb8bdea9b81c320f47b2610e4fec7980a3a8104651388cbad979",
		"fig1b": "1fa1a050edbc94ba86eb738db406e9b411a8c6ba10206365dbb2acd56b22b4df",
		"tab4":  "6c91d80911a0d9b36beb598aa092b2bf8a825d56f95037f3bf4f9be62b3c39d0",
		"tab5":  "dc6428b0e27b95c6c501aea3000d6723fe19eaba052cfaf253a952817c64abf6",
		"tab7":  "206b7e6cf9d2cf0a1d5fae3c68a5c3a15546597a6965076e9b3dc4cac9b5f7ba",
		"tab8":  "5608f34811d671d96dd71942fdc723a9eaa12bb90ab48ac9fa0f5fff1f1a74cb",
		"tab9":  "807e8fb4315c3c946a38ada2c8da78057d636ede373d777160181cd1c30574d6",
		"tab10": "c67043c42e255450c947591f3235e29ba043e06233fbff6c211534263cef6166",
		"tab11": "53dbe6295b9b80588394917eafd01a2961d155cb61a5e8016ab3d659a186b6e9",
		"tab12": "3bd8bf71083bd3da38a3c0f4b94df2b4497e8495e31f0645e4db5adb0da621a9",
		"tab13": "a052bec677fc97db4a7832947ab3f37473e7378b177c2927141db0a72c8e00f8",
		"tab14": "f2234a38cf258e89b5cc05a39d88363af7ebe8772f685f104d15e6f52023dab4",
		"tab15": "55385d76f87588bf00835c88f611b035de6751c78d9d0c63b9ec20dc0288cc73",
		"tab16": "4ac5fc773f57ed88a06a372a1a89bdc69cfe3875c33547a802e6896a64db8738",
	}
	cfg := Config{Runs: 3, Episodes: 150}
	for _, e := range goldenExperiments() {
		t.Run(e.id, func(t *testing.T) {
			tables, err := e.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tab := range tables {
				if err := tab.Render(&buf); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[e.id] {
				t.Errorf("digest %s, want %s; the tables now read:\n%s", got, want[e.id], buf.String())
			}
		})
	}
}
