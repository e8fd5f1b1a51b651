package lint

import (
	"strings"

	"ndsearch/internal/lint/analysis"
)

// Production scope for the suite. The analyzers are configurable so
// tests can point them at fixture packages; this file is the single
// place the real tree's scope lives.
const modPath = "ndsearch"

// servePackages are the serve/decode packages whose failure mode is a
// typed error, never a panic: the snapshot codec, the search plumbing,
// the engine and its mutable delta tier, and the six index families'
// graph packages.
var servePackages = []string{
	modPath + "/internal/snapshot",
	modPath + "/internal/ann",
	modPath + "/internal/engine",
	modPath + "/internal/delta",
	modPath + "/internal/hnsw",
	modPath + "/internal/vamana",
	modPath + "/internal/hcnng",
	modPath + "/internal/togg",
	modPath + "/internal/ivfpq",
}

// sentinelPackages declare Err* sentinels and must wrap them uniformly.
var sentinelPackages = []string{
	modPath + "/internal/snapshot",
	modPath + "/internal/ann",
}

// closableTypes own goroutine pools, mmaps, or file handles.
var closableTypes = []string{
	modPath + "/internal/engine.Engine",
	modPath + "/internal/engine.Compactor",
	modPath + "/internal/snapshot.PagedIndex",
}

// allowWallClock: commands and examples print real timings and enforce
// real deadlines, and internal/obs is the sanctioned time.Now consumer
// for the library tree — latency metrics and trace spans are wall-clock
// by definition, and funneling every measurement through obs keeps the
// rest of the library reproducible (benchmarks and tests are exempted
// by the analyzer itself, one-off timing stats carry //ndvet:ignore
// directives). See DESIGN.md §13.
func allowWallClock(pkgPath, filename string) bool {
	return pkgPath == modPath+"/internal/obs" ||
		strings.HasPrefix(pkgPath, modPath+"/cmd/") ||
		strings.HasPrefix(pkgPath, modPath+"/examples/")
}

// Suite returns the five production-configured analyzers, the set
// `ndvet ./...` runs.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism(DeterminismConfig{AllowWallClock: allowWallClock}),
		PanicFree(PanicFreeConfig{Packages: servePackages}),
		ErrSentinel(ErrSentinelConfig{Packages: sentinelPackages}),
		KernelPurity(KernelPurityConfig{AllowPackages: []string{modPath + "/internal/vec"}}),
		CloseCheck(CloseCheckConfig{
			Types:       closableTypes,
			AllPackages: []string{modPath + "/examples"},
		}),
	}
}
