package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel microbenchmarks compare the scalar per-pair path
// (vec.Distance over []float32 slices, norms recomputed every call)
// against the Matrix/Kernel path (contiguous rows, precomputed norms,
// 4-way unrolled loops, query preprocessed once). Supporting evidence
// only: ndbench's traced pass reports vec.*_ns_per_dist at the served
// shapes (bench/README.md).

var benchSink float32

// allRows is every row index of a rows-row matrix, in order: the
// shortlist an exact scan hands DistsTo.
func allRows(rows int) []uint32 {
	ids := make([]uint32, rows)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

func benchData(rows, dim int) ([]Vector, Vector) {
	rng := rand.New(rand.NewSource(42))
	data := make([]Vector, rows)
	for i := range data {
		data[i] = randVec(rng, dim)
	}
	return data, randVec(rng, dim)
}

func BenchmarkDistance(b *testing.B) {
	const rows = 1024
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range []int{16, 128, 960} {
			data, query := benchData(rows, dim)
			b.Run(fmt.Sprintf("scalar/%v/d%d", m, dim), func(b *testing.B) {
				dist := DistanceFunc(m)
				b.SetBytes(int64(rows) * int64(dim) * 4)
				for i := 0; i < b.N; i++ {
					var s float32
					for _, v := range data {
						s += dist(query, v)
					}
					benchSink = s
				}
			})
			b.Run(fmt.Sprintf("kernel/%v/d%d", m, dim), func(b *testing.B) {
				k := NewKernel(m, NewMatrix(data))
				ids, out := allRows(rows), make([]float32, rows)
				b.SetBytes(int64(rows) * int64(dim) * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := k.Prepare(query)
					k.DistsTo(q, ids, out)
					benchSink = out[rows-1]
				}
			})
		}
	}
}

// BenchmarkDistRows measures the build-time row-row kernel (both norms
// precomputed) against the scalar pairwise path.
func BenchmarkDistRows(b *testing.B) {
	const rows = 1024
	for _, m := range []Metric{L2, Angular} {
		dim := 128
		data, _ := benchData(rows, dim)
		b.Run(fmt.Sprintf("scalar/%v/d%d", m, dim), func(b *testing.B) {
			dist := DistanceFunc(m)
			for i := 0; i < b.N; i++ {
				var s float32
				for j := 1; j < rows; j++ {
					s += dist(data[0], data[j])
				}
				benchSink = s
			}
		})
		b.Run(fmt.Sprintf("kernel/%v/d%d", m, dim), func(b *testing.B) {
			k := NewKernel(m, NewMatrix(data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s float32
				for j := 1; j < rows; j++ {
					s += k.DistRows(0, j)
				}
				benchSink = s
			}
		})
	}
}

// BenchmarkQuantKernel compares the float32 kernel full scan against
// the SQ8 code-space kernel over the same corpus: the float32-row and
// code-row scorers, a quarter of the vector bytes per row. ndbench
// reports the served-shape pair as vec.l2_d128_ns_per_dist /
// vec.sq8_d128_ns_per_dist.
func BenchmarkQuantKernel(b *testing.B) {
	const rows = 1024
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range []int{96, 128} {
			data, query := benchData(rows, dim)
			mat := NewMatrix(data)
			mat.EnableSQ8()
			ids, out := allRows(rows), make([]float32, rows)
			b.Run(fmt.Sprintf("f32/%v/d%d", m, dim), func(b *testing.B) {
				k := NewKernel(m, mat)
				b.SetBytes(int64(rows) * int64(dim) * 4)
				for i := 0; i < b.N; i++ {
					q := k.Prepare(query)
					k.DistsTo(q, ids, out)
					benchSink = out[rows-1]
				}
			})
			b.Run(fmt.Sprintf("sq8/%v/d%d", m, dim), func(b *testing.B) {
				k := NewQuantizedKernel(m, mat)
				b.SetBytes(int64(rows) * int64(dim))
				for i := 0; i < b.N; i++ {
					q := k.Prepare(query)
					k.DistsTo(q, ids, out)
					benchSink = out[rows-1]
				}
			})
		}
	}
}

// expansionShape is one graph expansion on the served corpus: 24
// random rows of an 8 000 × 128 matrix (sift-1b's dim), the shortlist
// a traversal hands DistsTo or a paged chunk hands DistancesToStored.
const expansionRows, expansionCorpus, expansionDim = 24, 8000, 128

// BenchmarkDistsTo measures one expansion's float32 L2 shortlist
// through the batched kernel: normal rows on the four-row l2sq4 path,
// and byte-valued rows and query (sift-1b's at-rest values) on the
// order-free FMA body where the CPU has it.
func BenchmarkDistsTo(b *testing.B) {
	data, query := benchData(expansionCorpus, expansionDim)
	rng := rand.New(rand.NewSource(43))
	bytesData := make([]Vector, len(data))
	for i := range bytesData {
		bytesData[i] = make(Vector, expansionDim)
		for j := range bytesData[i] {
			bytesData[i][j] = float32(rng.Intn(256))
		}
	}
	bytesQuery := make(Vector, expansionDim)
	for j := range bytesQuery {
		bytesQuery[j] = float32(rng.Intn(256))
	}
	ids := make([]uint32, expansionRows)
	for i := range ids {
		ids[i] = uint32(rng.Intn(expansionCorpus))
	}
	out := make([]float32, expansionRows)
	for _, c := range []struct {
		name  string
		data  []Vector
		query Vector
	}{{"normal", data, query}, {"byte-valued", bytesData, bytesQuery}} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel(L2, NewMatrix(c.data))
			q := k.Prepare(c.query)
			for b.Loop() {
				k.DistsTo(q, ids, out)
			}
			benchSink = out[0]
		})
	}
}

// BenchmarkDistancesToStored is BenchmarkDistsTo's shape over u8
// at-rest rows — the paged store's per-chunk scoring call.
func BenchmarkDistancesToStored(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	corpus := make([]byte, expansionCorpus*expansionDim)
	for i := range corpus {
		corpus[i] = byte(rng.Intn(256))
	}
	query := make(Vector, expansionDim)
	for i := range query {
		query[i] = float32(rng.Intn(256))
	}
	q := PrepareQuery(L2, query)
	rows := make([][]byte, expansionRows)
	for i := range rows {
		r := rng.Intn(expansionCorpus)
		rows[i] = corpus[r*expansionDim : (r+1)*expansionDim]
	}
	out := make([]float32, expansionRows)
	for b.Loop() {
		q.DistancesToStored(U8, rows, out)
	}
	benchSink = out[0]
}
