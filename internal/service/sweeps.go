package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
)

// maxSweepSpecBytes bounds the POST /v1/sweeps body.
const maxSweepSpecBytes = 1 << 20

// SweepSubmitResponse answers POST /v1/sweeps: the job's initial
// status (202: the sweep runs in the background).
type SweepSubmitResponse struct {
	sweep.Status
	// Resumed is true when the job was seeded from an existing
	// checkpoint rather than starting cold.
	Resumed bool `json:"resumed"`
}

// SweepListResponse answers GET /v1/sweeps.
type SweepListResponse struct {
	Sweeps []sweep.Status `json:"sweeps"`
}

// SweepResultResponse answers GET /v1/sweeps/{id}/result: the exported
// dataset plus the legend the strategy_id column indexes and any
// per-cell errors.
type SweepResultResponse struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	Strategies []string `json:"strategies"`
	// FaultModels is the legend the dataset's model_id column indexes;
	// omitted (with the column) for crash-only sweeps.
	FaultModels []string        `json:"fault_models,omitempty"`
	Dataset     json.RawMessage `json:"dataset"`
	CellErrors  []sweep.Cell    `json:"cell_errors,omitempty"`
	Files       []string        `json:"files,omitempty"`
}

// handleSweepSubmit decodes a sweep spec and submits it. Submission is
// idempotent per spec: resubmitting returns the existing job, and after
// a daemon restart the job resumes from its checkpoint.
func (s *Service) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepSpecBytes))
	dec.DisallowUnknownFields()
	var spec sweep.Spec
	if err := dec.Decode(&spec); err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "invalid sweep spec: "+err.Error())
		return
	}
	job, err := s.sweeps.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "shut down") {
			status = http.StatusServiceUnavailable
		}
		telemetry.WriteJSONError(w, status, err.Error())
		return
	}
	st := job.Status()
	s.writeJSON(r.Context(), w, http.StatusAccepted, SweepSubmitResponse{Status: st, Resumed: st.ResumedCells > 0})
}

// handleSweepList reports every job's status in submission order.
func (s *Service) handleSweepList(w http.ResponseWriter, r *http.Request) {
	list := s.sweeps.List()
	if list == nil {
		list = []sweep.Status{}
	}
	s.writeJSON(r.Context(), w, http.StatusOK, SweepListResponse{Sweeps: list})
}

// sweepByID resolves the {id} path value, writing a 404 on a miss.
func (s *Service) sweepByID(w http.ResponseWriter, r *http.Request) (*sweep.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.sweeps.Get(id)
	if !ok {
		telemetry.WriteJSONError(w, http.StatusNotFound, "no sweep with id "+id)
		return nil, false
	}
	return job, true
}

// handleSweepStatus reports one job's progress.
func (s *Service) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r)
	if !ok {
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, job.Status())
}

// handleSweepResult serves a finished job's dataset. Unfinished jobs
// get a 409 pointing at the status endpoint.
func (s *Service) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r)
	if !ok {
		return
	}
	st := job.Status()
	if st.State != sweep.StateDone {
		telemetry.WriteJSONError(w, http.StatusConflict,
			"sweep "+st.ID+" is "+string(st.State)+"; poll GET /v1/sweeps/"+st.ID+" until done")
		return
	}
	ds, err := job.Dataset()
	if err != nil {
		s.logger.Error("sweep dataset", "job", st.ID, "err", err)
		telemetry.WriteJSONError(w, http.StatusInternalServerError, "internal: cannot assemble dataset")
		return
	}
	// trace.WriteJSON is the canonical encoder (it nulls non-finite
	// cells); embed its output verbatim.
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		s.logger.Error("sweep dataset encode", "job", st.ID, "err", err)
		telemetry.WriteJSONError(w, http.StatusInternalServerError, "internal: cannot encode dataset")
		return
	}
	resp := SweepResultResponse{
		ID:          st.ID,
		Name:        st.Name,
		Strategies:  st.Strategies,
		FaultModels: st.Spec.FaultModels,
		Dataset:     json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		Files:       st.Files,
	}
	for _, c := range job.CompletedCells() {
		if !c.OK() {
			resp.CellErrors = append(resp.CellErrors, c)
		}
	}
	s.writeJSON(r.Context(), w, http.StatusOK, resp)
}

// handleSweepCancel requests cooperative cancellation. Cancelling an
// already-terminal job is a no-op that still returns its status.
func (s *Service) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sweepByID(w, r)
	if !ok {
		return
	}
	job.Cancel()
	s.writeJSON(r.Context(), w, http.StatusOK, job.Status())
}
