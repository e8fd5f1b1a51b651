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

	// ErrBadConfig reports a malformed tuning or search request
	// (k < 1, recall target outside (0, 1], no queries) or a served
	// index assembled from inconsistent parts (empty store, entry out
	// of range, quantized flag disagreeing with the store).
	ErrBadConfig = errors.New("ann: invalid configuration")
)
