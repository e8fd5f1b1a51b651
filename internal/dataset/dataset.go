// Package dataset generates the seeded synthetic stand-ins for the five
// benchmark datasets the paper evaluates (glove-100, fashion-mnist,
// sift-1b, deep-1b, spacev-1b). Each profile matches the real dataset's
// dimensionality, element type, and distance metric, and carries
// *full-scale* metadata (the logical vector count of the real corpus) so
// that the platform models can reproduce DRAM/VRAM capacity pressure even
// though traversal runs on a scaled-down graph.
package dataset

import (
	"fmt"
	"math/rand"

	"ndsearch/internal/vec"
)

// Profile describes a benchmark dataset family.
type Profile struct {
	// Name is the paper's dataset label, e.g. "sift-1b".
	Name string
	// Dim is the feature dimensionality.
	Dim int
	// Elem is the at-rest component type.
	Elem vec.ElemKind
	// Metric is the distance function the benchmark uses.
	Metric vec.Metric
	// FullScaleVectors is the logical size of the real corpus. Platform
	// models use it to decide whether the dataset fits in host DRAM or
	// GPU VRAM (the scaled-down graph never does that job).
	FullScaleVectors int64
	// Clusters controls the synthetic generator's mixture size.
	Clusters int
	// Spread is the intra-cluster standard deviation relative to the
	// inter-cluster scale; larger values make the search harder.
	Spread float64
}

// Profiles returns the five benchmark profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{
		Glove100(),
		FashionMNIST(),
		Sift1B(),
		Deep1B(),
		SpaceV1B(),
	}
}

// ProfileByName looks a profile up by its paper label.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// Glove100 mimics the GloVe word-embedding benchmark: 100-d float32,
// angular distance, ~1.2 M vectors (fits in host memory).
func Glove100() Profile {
	return Profile{
		Name: "glove-100", Dim: 100, Elem: vec.F32, Metric: vec.Angular,
		FullScaleVectors: 1_183_514, Clusters: 64, Spread: 0.35,
	}
}

// FashionMNIST mimics the fashion-mnist benchmark: 784-d float32
// (flattened 28x28 images), Euclidean, 60 K vectors.
func FashionMNIST() Profile {
	return Profile{
		Name: "fashion-mnist", Dim: 784, Elem: vec.F32, Metric: vec.L2,
		FullScaleVectors: 60_000, Clusters: 10, Spread: 0.30,
	}
}

// Sift1B mimics the BIGANN sift-1b benchmark: 128-d uint8 SIFT
// descriptors, Euclidean, 10^9 vectors.
func Sift1B() Profile {
	return Profile{
		Name: "sift-1b", Dim: 128, Elem: vec.U8, Metric: vec.L2,
		FullScaleVectors: 1_000_000_000, Clusters: 128, Spread: 0.25,
	}
}

// Deep1B mimics the deep-1b benchmark: 96-d float32 CNN descriptors
// (unit-normalised), Euclidean, 10^9 vectors.
func Deep1B() Profile {
	return Profile{
		Name: "deep-1b", Dim: 96, Elem: vec.F32, Metric: vec.L2,
		FullScaleVectors: 1_000_000_000, Clusters: 96, Spread: 0.30,
	}
}

// SpaceV1B mimics Microsoft SpaceV: 100-d int8 text descriptors,
// Euclidean, 10^9 vectors.
func SpaceV1B() Profile {
	return Profile{
		Name: "spacev-1b", Dim: 100, Elem: vec.I8, Metric: vec.L2,
		FullScaleVectors: 1_000_000_000, Clusters: 100, Spread: 0.28,
	}
}

// IsBillionScale reports whether the real corpus exceeds single-node
// DRAM capacity in the paper's setup (the three *-1b datasets).
func (p Profile) IsBillionScale() bool { return p.FullScaleVectors >= 500_000_000 }

// VertexBytes returns the per-vertex storage footprint with the paper's
// HNSW/DiskANN layout: the feature vector followed by up to maxDegree
// 4-byte neighbor IDs (Fig. 6).
func (p Profile) VertexBytes(maxDegree int) int64 {
	return int64(vec.StoredBytes(p.Elem, p.Dim)) + 4*int64(maxDegree)
}

// FullScaleFootprint returns the logical corpus size in bytes for the
// paper's layout — what the CPU/GPU baselines must hold or stream.
func (p Profile) FullScaleFootprint(maxDegree int) int64 {
	return p.FullScaleVectors * p.VertexBytes(maxDegree)
}

// Dataset is a generated corpus: base vectors plus held-out queries.
type Dataset struct {
	Profile Profile
	Vectors []vec.Vector
	Queries []vec.Vector
}

// GenConfig controls synthetic generation.
type GenConfig struct {
	// N is the number of base vectors to generate.
	N int
	// Queries is the number of held-out query vectors.
	Queries int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds a synthetic dataset for profile p: a Gaussian mixture
// with p.Clusters centroids. Components are quantised to the profile's
// element grid so simulated NAND contents and ground truth agree, and
// deep-1b vectors are unit-normalised like the real corpus.
func Generate(p Profile, cfg GenConfig) (*Dataset, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: N must be positive, got %d", cfg.N)
	}
	if cfg.Queries < 0 {
		return nil, fmt.Errorf("dataset: Queries must be non-negative, got %d", cfg.Queries)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clusters := p.Clusters
	if clusters < 1 {
		clusters = 1
	}
	centroids := make([]vec.Vector, clusters)
	scale := elementScale(p.Elem)
	for c := range centroids {
		centroids[c] = randomCentroid(rng, p.Dim, scale)
	}
	sample := func() vec.Vector {
		c := centroids[rng.Intn(clusters)]
		v := make(vec.Vector, p.Dim)
		sigma := p.Spread * scale
		for i := range v {
			v[i] = c[i] + float32(rng.NormFloat64()*sigma)
		}
		if p.Name == "deep-1b" {
			v.Normalize()
		}
		return vec.Quantize(p.Elem, v)
	}
	d := &Dataset{Profile: p}
	d.Vectors = make([]vec.Vector, cfg.N)
	for i := range d.Vectors {
		d.Vectors[i] = sample()
	}
	d.Queries = make([]vec.Vector, cfg.Queries)
	for i := range d.Queries {
		d.Queries[i] = sample()
	}
	return d, nil
}

// elementScale returns a centroid coordinate scale that keeps the
// quantised grids well-populated for each element kind.
func elementScale(k vec.ElemKind) float64 {
	switch k {
	case vec.U8:
		return 64 // centroids around [64, 192] inside [0,255]
	case vec.I8:
		return 48 // centroids inside [-96, 96]
	default:
		return 1
	}
}

func randomCentroid(rng *rand.Rand, dim int, scale float64) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	// U8 grids are non-negative; shift the centroid into range.
	if scale == 64 {
		for i := range v {
			v[i] += 128
		}
	}
	return v
}
