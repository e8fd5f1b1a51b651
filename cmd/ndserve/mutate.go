package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

// Live-mutability endpoints: POST /upsert and POST /delete land writes
// in the engine's delta tier, POST /compact drains it into a new base
// generation on demand, and /stats grows a mutation block. Request
// vectors go through the same finiteness and dimensionality validation
// as /search queries (checkVector), so a NaN can no more enter the
// corpus than it can enter a query.

// EnableCompaction starts a background compactor over the engine,
// draining the delta tier whenever its shadow-set size reaches
// threshold (<= 0 selects engine.DefaultCompactThreshold).
func (s *Server) EnableCompaction(threshold int) {
	s.compactor = engine.NewCompactor(s.engine, threshold)
}

// UpsertItem is one vector on the /upsert wire.
type UpsertItem struct {
	ID     uint32    `json:"id"`
	Vector []float32 `json:"vector"`
}

// UpsertRequest is the /upsert payload: a single item (id + vector) or
// a batch (items), not both.
type UpsertRequest struct {
	ID     *uint32      `json:"id,omitempty"`
	Vector []float32    `json:"vector,omitempty"`
	Items  []UpsertItem `json:"items,omitempty"`
}

// MutateResponse is the /upsert and /delete reply.
type MutateResponse struct {
	// Upserted and Deleted count applied mutations (Deleted counts only
	// IDs that were live).
	Upserted int `json:"upserted,omitempty"`
	Deleted  int `json:"deleted,omitempty"`
	// Live is the engine's live vector count after the call.
	Live int `json:"live"`
}

// allowPost gates /search and the mutating endpoints to POST; anything
// else is a 405 with an Allow header, mirroring allowGet.
func allowPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	return true
}

// decodeBody decodes a JSON request body under the server's size cap,
// writing the error response itself when the body is oversized,
// malformed, or carries anything but whitespace after the one JSON
// value — a second value would otherwise be silently dropped.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBodyBytes))
	err := dec.Decode(v)
	trailing := err == nil
	if trailing {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", s.maxBodyBytes)
	case trailing:
		httpError(w, http.StatusBadRequest, "trailing data after JSON body")
	default:
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
	}
	return false
}

// mutationError maps engine mutation errors onto HTTP statuses: a
// racing compaction is a retryable conflict (409), anything else from
// the write path is caller error (400).
func mutationError(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrCompacting) {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	httpError(w, http.StatusBadRequest, "%v", err)
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	if !allowPost(w, r) {
		return
	}
	var req UpsertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var items []UpsertItem
	switch {
	case req.ID != nil && req.Items != nil:
		httpError(w, http.StatusBadRequest, "set either id/vector or items, not both")
		return
	case req.ID != nil:
		items = []UpsertItem{{ID: *req.ID, Vector: req.Vector}}
	case req.Items != nil:
		items = req.Items
	default:
		httpError(w, http.StatusBadRequest, "missing id/vector or items")
		return
	}
	if len(items) == 0 {
		httpError(w, http.StatusBadRequest, "empty items")
		return
	}
	if len(items) > s.maxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(items), s.maxBatch)
		return
	}
	// Validate every vector before applying any, so a rejected batch has
	// no partial effect: the same dim + finiteness gate /search queries
	// pass through, then the engine's at-rest representability check.
	for i, it := range items {
		if err := s.checkVector(i, it.Vector); err != nil {
			httpError(w, http.StatusBadRequest, "item %v", err)
			return
		}
		if err := s.engine.CheckElem(it.Vector); err != nil {
			httpError(w, http.StatusBadRequest, "item %d: %v", i, err)
			return
		}
	}
	for _, it := range items {
		if err := s.engine.Upsert(it.ID, vec.Vector(it.Vector)); err != nil {
			mutationError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Upserted: len(items), Live: s.engine.Len(),
	})
}

// DeleteRequest is the /delete payload: a single id or a batch of ids,
// not both.
type DeleteRequest struct {
	ID  *uint32  `json:"id,omitempty"`
	IDs []uint32 `json:"ids,omitempty"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !allowPost(w, r) {
		return
	}
	var req DeleteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var ids []uint32
	switch {
	case req.ID != nil && req.IDs != nil:
		httpError(w, http.StatusBadRequest, "set either id or ids, not both")
		return
	case req.ID != nil:
		ids = []uint32{*req.ID}
	case req.IDs != nil:
		ids = req.IDs
	default:
		httpError(w, http.StatusBadRequest, "missing id or ids")
		return
	}
	if len(ids) == 0 {
		httpError(w, http.StatusBadRequest, "empty ids")
		return
	}
	if len(ids) > s.maxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(ids), s.maxBatch)
		return
	}
	deleted := 0
	for _, id := range ids {
		was, err := s.engine.Delete(id)
		if err != nil {
			mutationError(w, err)
			return
		}
		if was {
			deleted++
		}
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Deleted: deleted, Live: s.engine.Len(),
	})
}

// CompactResponse is the /compact reply.
type CompactResponse struct {
	// Generation is the base generation now serving; Vectors its size.
	Generation int     `json:"generation"`
	Vectors    int     `json:"vectors"`
	DurationUS float64 `json:"duration_us"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !allowPost(w, r) {
		return
	}
	if err := s.engine.Compact(); err != nil {
		mutationError(w, err)
		return
	}
	st := s.engine.MutStats()
	writeJSON(w, http.StatusOK, CompactResponse{
		Generation: st.Generation,
		Vectors:    st.LastCompactVectors,
		DurationUS: float64(st.LastCompactDuration) / float64(time.Microsecond),
	})
}

// MutationStats is the live-mutability section of /stats
// (engine.MutStats plus the background compactor's counters).
type MutationStats struct {
	Upserts          int64   `json:"upserts"`
	Deletes          int64   `json:"deletes"`
	Compactions      int64   `json:"compactions"`
	Generation       int     `json:"generation"`
	DeltaLive        int     `json:"delta_live"`
	DeltaTombstones  int     `json:"delta_tombstones"`
	BaseTombstones   int64   `json:"base_tombstones"`
	Compacting       bool    `json:"compacting"`
	LastCompactUS    float64 `json:"last_compact_us,omitempty"`
	LastCompactVecs  int     `json:"last_compact_vectors,omitempty"`
	CompactThreshold int     `json:"compact_threshold,omitempty"`
	CompactorRuns    int64   `json:"compactor_runs,omitempty"`
	CompactorError   string  `json:"compactor_error,omitempty"`
}

// mutationStats assembles the /stats mutation block.
func (s *Server) mutationStats() *MutationStats {
	st := s.engine.MutStats()
	out := &MutationStats{
		Upserts:         st.Upserts,
		Deletes:         st.Deletes,
		Compactions:     st.Compactions,
		Generation:      st.Generation,
		DeltaLive:       st.DeltaLive,
		DeltaTombstones: st.DeltaTombstones,
		BaseTombstones:  st.BaseTombstones,
		Compacting:      st.Compacting,
		LastCompactUS:   float64(st.LastCompactDuration) / float64(time.Microsecond),
		LastCompactVecs: st.LastCompactVectors,
	}
	if s.compactor != nil {
		out.CompactThreshold = s.compactor.Threshold()
		out.CompactorRuns = s.compactor.Runs()
		if err := s.compactor.LastErr(); err != nil {
			out.CompactorError = err.Error()
		}
	}
	return out
}
