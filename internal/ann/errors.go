package ann

import "errors"

// Sentinel errors: every failure this package reports wraps one of
// these, so callers discriminate failure modes with errors.Is instead
// of string matching, and the errsentinel lint (internal/lint) keeps
// new error paths on the same contract.
var (
	// ErrInvalidResults reports a result list that violates the
	// package contract Validate checks: ascending (distance, ID)
	// order, finite distances, unique in-range IDs.
	ErrInvalidResults = errors.New("ann: invalid result list")

	// ErrBadConfig reports a served index assembled from inconsistent
	// parts (empty store, entry out of range, quantized flag disagreeing
	// with the store, a graph whose size differs from the corpus).
	ErrBadConfig = errors.New("ann: invalid configuration")
)
