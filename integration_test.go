package tdb

// Integration tests exercising the public API across every workload family
// and all 16 dataset stand-ins at reduced scale, cross-checking algorithms
// against each other and the verifier.

import (
	"context"
	"testing"
)

func TestIntegrationAllDatasets(t *testing.T) {
	for _, d := range Datasets() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			scale := 0.002
			if d.Large {
				scale = 3000.0 / float64(d.PaperE)
			}
			g := d.Generate(scale)
			res, err := Solve(context.Background(), g, 5, WithOrder(OrderDegreeAsc))
			if err != nil {
				t.Fatal(err)
			}
			rep := Verify(g, 5, 3, res.Cover, true)
			if !rep.Valid {
				t.Fatalf("invalid cover; surviving cycle %v", rep.Witness)
			}
			if !rep.Minimal {
				t.Fatalf("redundant vertices %v", rep.Redundant)
			}
		})
	}
}

func TestIntegrationWorkloadFamilies(t *testing.T) {
	graphs := map[string]*Graph{
		"erdos-renyi": GenErdosRenyi(400, 1600, 5),
		"power-law":   GenPowerLaw(400, 2400, 2.8, 0.4, 5),
		"small-world": GenSmallWorld(400, 3, 0.5, 5),
		"planted":     GenPlantedCycles(400, 10, 3, 5, 800, 5).Graph,
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			var sizes []int
			for _, algo := range []Algorithm{BURPlus, TDBPlusPlus} {
				res, err := Solve(context.Background(), g, 5, WithAlgorithm(algo), WithOrder(OrderDegreeAsc))
				if err != nil {
					t.Fatal(err)
				}
				rep := Verify(g, 5, 3, res.Cover, true)
				if !rep.Valid || !rep.Minimal {
					t.Fatalf("%v failed verification: %+v", algo, rep)
				}
				sizes = append(sizes, len(res.Cover))
			}
			// Heuristics differ but should land in the same ballpark; a
			// 5x divergence would indicate a broken algorithm.
			lo, hi := sizes[0], sizes[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo > 0 && hi > 5*lo {
				t.Fatalf("cover sizes diverge: %v", sizes)
			}
		})
	}
}

// The full pipeline: generate -> save -> load -> cover -> save cover ->
// verify, mirroring what the CLI tools do.
func TestIntegrationFilePipeline(t *testing.T) {
	dir := t.TempDir()
	g := GenPowerLaw(500, 3000, 2.4, 0.3, 11)
	gPath := dir + "/g.bin"
	if err := SaveGraph(gPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(gPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), g2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(g, 4, 3, res.Cover, true) // verify against the ORIGINAL
	if !rep.Valid || !rep.Minimal {
		t.Fatalf("cover fails on the original graph: %+v", rep)
	}
}

// MinLen=2 covers are supersets in obligation: removing them must also
// break 2-cycles.
func TestIntegrationTwoCycleVariant(t *testing.T) {
	g := GenPowerLaw(300, 2000, 2.2, 0.5, 13)
	res, err := Solve(context.Background(), g, 5, WithMinLen(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(g, 5, 2, res.Cover, true)
	if !rep.Valid || !rep.Minimal {
		t.Fatalf("2-cycle variant failed: %+v", rep)
	}
	res3, err := Solve(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) < len(res3.Cover) {
		t.Fatalf("with-2-cycles cover %d smaller than without %d",
			len(res.Cover), len(res3.Cover))
	}
}
