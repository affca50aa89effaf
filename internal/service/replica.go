package service

import (
	"encoding/json"
	"net/http"
	"regexp"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
)

// Replica endpoints: the wire surface of sweep-checkpoint replication.
// A home backend PUTs every fsynced checkpoint to the next f ring
// owners; anti-entropy GETs digests to find divergence and GETs the
// winning checkpoint to repair it. All three are internal fleet
// traffic, admitted under the cache class so a replication storm
// cannot starve the serving path.

// maxReplicaBody bounds one replicated checkpoint payload. Checkpoints
// hold one JSON cell per completed grid cell; 16 MiB matches the cache
// snapshot bound and is orders of magnitude above a real sweep.
const maxReplicaBody = 16 << 20

// jobIDPattern matches sweep job IDs ("sw-" plus a hash prefix). The
// ID names a file on disk, so anything outside this alphabet — path
// separators, dots — is rejected before it reaches a filesystem call.
var jobIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,128}$`)

// ReplicaDigestResponse answers GET /v1/replica/digest: what this
// backend holds, split by role. Home entries are checkpoints this
// backend writes as a job's owner; replica entries were pushed to it
// by other owners. Anti-entropy compares checksums across owners and
// repairs with the Newer copy.
type ReplicaDigestResponse struct {
	Home    map[string]sweep.CheckpointInfo `json:"home"`
	Replica map[string]sweep.CheckpointInfo `json:"replica"`
}

// replicasEnabled guards the replica surface: a daemon started without
// a replica store answers 503 so a misconfigured fleet fails loudly
// instead of silently dropping replicated checkpoints.
func (s *Service) replicasEnabled(w http.ResponseWriter) bool {
	if s.cfg.Replicas == nil {
		telemetry.WriteJSONError(w, http.StatusServiceUnavailable, "replication is not enabled on this backend")
		return false
	}
	return true
}

// handleReplicaPut stores a checkpoint replicated from another owner.
// The body must verify (version and checksum) and match the path ID;
// stale pushes are acknowledged without storing so replays converge.
func (s *Service) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBody))
	var cp sweep.Checkpoint
	if err := dec.Decode(&cp); err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "invalid checkpoint body: "+err.Error())
		return
	}
	if cp.ID != id {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "checkpoint id "+cp.ID+" does not match path id "+id)
		return
	}
	if err := s.cfg.Replicas.Put(cp); err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "checkpoint rejected: "+err.Error())
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, s.cfg.Replicas.Stats())
}

// handleReplicaGet serves a checkpoint for anti-entropy repair. The
// replica store is consulted first, then the home checkpoint directory
// — as a job's owner this backend holds the authoritative copy there,
// and a repairing peer should not care which role produced it.
func (s *Service) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "invalid job id")
		return
	}
	cp, err := s.cfg.Replicas.Get(id)
	if err != nil {
		telemetry.WriteJSONError(w, http.StatusInternalServerError, "replica read failed: "+err.Error())
		return
	}
	if cp == nil {
		cp, err = sweep.LoadCheckpoint(s.sweeps.Dir(), id)
		if err != nil {
			telemetry.WriteJSONError(w, http.StatusInternalServerError, "checkpoint read failed: "+err.Error())
			return
		}
	}
	if cp == nil {
		telemetry.WriteJSONError(w, http.StatusNotFound, "no checkpoint for job "+id)
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, cp)
}

// handleReplicaDigest summarizes every checkpoint this backend holds,
// home and replica, for anti-entropy comparison.
func (s *Service) handleReplicaDigest(w http.ResponseWriter, r *http.Request) {
	if !s.replicasEnabled(w) {
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, ReplicaDigestResponse{
		Home:    sweep.ScanCheckpoints(s.sweeps.Dir()),
		Replica: s.cfg.Replicas.Digest(),
	})
}
