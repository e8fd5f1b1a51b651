package dataset

import (
	"testing"

	"ndsearch/internal/vec"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("expected the paper's 5 datasets, got %d", len(ps))
	}
	wantNames := []string{"glove-100", "fashion-mnist", "sift-1b", "deep-1b", "spacev-1b"}
	for i, p := range ps {
		if p.Name != wantNames[i] {
			t.Errorf("profile %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if p.Dim <= 0 || p.FullScaleVectors <= 0 || p.Clusters <= 0 {
			t.Errorf("profile %q has degenerate parameters: %+v", p.Name, p)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("sift-1b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim != 128 || p.Elem != vec.U8 || p.Metric != vec.L2 {
		t.Errorf("sift-1b profile wrong: %+v", p)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile should return an error")
	}
}

func TestBillionScaleFlag(t *testing.T) {
	big := map[string]bool{
		"glove-100": false, "fashion-mnist": false,
		"sift-1b": true, "deep-1b": true, "spacev-1b": true,
	}
	for _, p := range Profiles() {
		if got := p.IsBillionScale(); got != big[p.Name] {
			t.Errorf("%s IsBillionScale = %v, want %v", p.Name, got, big[p.Name])
		}
	}
}

func TestVertexBytesMatchesPaperExample(t *testing.T) {
	// §IV-B: a 128-byte feature vector plus 32 4-byte neighbor IDs is a
	// 256-byte slice; 16 such slices fit in a 4 KB page.
	p := Sift1B()
	if got := p.VertexBytes(32); got != 256 {
		t.Errorf("sift vertex bytes = %d, want 256", got)
	}
	if got := p.FullScaleFootprint(32); got != 256_000_000_000 {
		t.Errorf("sift-1b footprint = %d, want 256 GB", got)
	}
	// HNSW memory per vertex 60..450 bytes (§I) should bracket our values.
	for _, prof := range Profiles() {
		vb := prof.VertexBytes(32)
		if vb < 60 || vb > 4000 {
			t.Errorf("%s vertex bytes %d outside plausible range", prof.Name, vb)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Sift1B()
	cfg := GenConfig{N: 200, Queries: 10, Seed: 42}
	a, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vectors {
		for j := range a.Vectors[i] {
			if a.Vectors[i][j] != b.Vectors[i][j] {
				t.Fatalf("vector %d differs across identical seeds", i)
			}
		}
	}
	c, err := Generate(p, GenConfig{N: 200, Queries: 10, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Vectors {
		for j := range a.Vectors[i] {
			if a.Vectors[i][j] != c.Vectors[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateShapesAndGrids(t *testing.T) {
	for _, p := range Profiles() {
		d, err := Generate(p, GenConfig{N: 100, Queries: 7, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(d.Vectors) != 100 || len(d.Queries) != 7 {
			t.Fatalf("%s: wrong counts %d/%d", p.Name, len(d.Vectors), len(d.Queries))
		}
		for _, v := range d.Vectors[:10] {
			if len(v) != p.Dim {
				t.Fatalf("%s: vector dim %d, want %d", p.Name, len(v), p.Dim)
			}
			for _, x := range v {
				switch p.Elem {
				case vec.U8:
					if x < 0 || x > 255 || x != float32(int(x)) {
						t.Fatalf("%s: component %v off the u8 grid", p.Name, x)
					}
				case vec.I8:
					if x < -128 || x > 127 || x != float32(int(x)) {
						t.Fatalf("%s: component %v off the i8 grid", p.Name, x)
					}
				}
			}
		}
	}
}

func TestDeepIsNormalized(t *testing.T) {
	d, err := Generate(Deep1B(), GenConfig{N: 50, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Vectors {
		n := v.Norm()
		if n < 0.99 || n > 1.01 {
			t.Errorf("deep vector %d norm = %v, want ~1", i, n)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Sift1B(), GenConfig{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := Generate(Sift1B(), GenConfig{N: 10, Queries: -1}); err == nil {
		t.Error("negative Queries should fail")
	}
}

func TestClusteredStructure(t *testing.T) {
	// The mixture should produce meaningful locality: the average distance
	// to the nearest other vector must be far below the average distance
	// to a random vector, otherwise graph traversal degenerates.
	d, err := Generate(Sift1B(), GenConfig{N: 400, Queries: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var nearSum, randSum float64
	probes := 50
	for i := 0; i < probes; i++ {
		best := float32(1e30)
		for j := range d.Vectors {
			if j == i {
				continue
			}
			if dist := vec.L2Squared(d.Vectors[i], d.Vectors[j]); dist < best {
				best = dist
			}
		}
		nearSum += float64(best)
		randSum += float64(vec.L2Squared(d.Vectors[i], d.Vectors[len(d.Vectors)-1-i]))
	}
	if nearSum*3 > randSum {
		t.Errorf("dataset lacks cluster structure: nearest avg %v vs random avg %v",
			nearSum/float64(probes), randSum/float64(probes))
	}
}
