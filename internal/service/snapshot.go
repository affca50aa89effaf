package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"linesearch/internal/faultpoint"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// cacheSnapshotVersion guards the snapshot wire format; bump on
// incompatible changes so a mixed-version fleet rejects skewed
// payloads instead of misreading them.
const cacheSnapshotVersion = 1

// Snapshot-path fault points: tests and chaos schedules arm these to
// prove a failed export or import degrades one warm transfer, never
// the serving path.
const (
	fpSnapshotExport = "service.snapshot.export"
	fpSnapshotImport = "service.snapshot.import"
)

// maxSnapshotBody bounds one import payload; a snapshot entry is a
// plan key plus a float, so this is far beyond any real cache.
const maxSnapshotBody = 16 << 20

// defaultSnapshotLimit is the export size when the caller does not ask
// for a specific number of entries.
const defaultSnapshotLimit = 64

// CacheSnapshotEntry is one transferable plan-cache entry: the build
// key plus the competitive ratio computed at build time. The plan
// itself is rebuilt deterministically from the key on import (off the
// serving path), so the wire format stays small and version-stable.
type CacheSnapshotEntry struct {
	Key PlanKey `json:"key"`
	CR  float64 `json:"cr"`
}

// CacheSnapshot is the /v1/cache/snapshot payload: the hottest cache
// entries in most-recently-used-first order, checksummed like a sweep
// checkpoint so torn or corrupted transfers are rejected loudly.
type CacheSnapshot struct {
	Version  int                  `json:"version"`
	Entries  []CacheSnapshotEntry `json:"entries"`
	Checksum string               `json:"checksum"`
}

// checksum returns the hex SHA-256 of the snapshot's canonical form:
// the compact JSON encoding with the Checksum field blank. Computed on
// the decoded value, it is independent of wire whitespace.
func (s CacheSnapshot) checksum() string {
	s.Checksum = ""
	blob, err := json.Marshal(s)
	if err != nil {
		// CacheSnapshot is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal cache snapshot: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Seal stamps the content checksum. The router uses it to re-seal the
// filtered sub-snapshots it pushes during a warm transfer; anything
// else that mutates Entries must re-Seal before sending.
func (s *CacheSnapshot) Seal() { s.Checksum = s.checksum() }

// NewCacheSnapshot builds a sealed snapshot at the current wire
// version around the given entries — the constructor the router uses
// for the sub-snapshots it assembles during a warm transfer.
func NewCacheSnapshot(entries []CacheSnapshotEntry) CacheSnapshot {
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: entries}
	snap.Seal()
	return snap
}

// Export snapshots the limit most recently used entries (limit < 1
// exports everything), sealed with the content checksum.
func (c *PlanCache) Export(limit int) CacheSnapshot {
	c.mu.Lock()
	n := c.ll.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	entries := make([]CacheSnapshotEntry, 0, n)
	for elem := c.ll.Front(); elem != nil && len(entries) < n; elem = elem.Next() {
		ce := elem.Value.(*cacheEntry)
		entries = append(entries, CacheSnapshotEntry{Key: ce.key, CR: ce.plan.CR})
	}
	c.mu.Unlock()
	snap := CacheSnapshot{Version: cacheSnapshotVersion, Entries: entries}
	snap.Checksum = snap.checksum()
	return snap
}

// ImportStats reports what one snapshot import did.
type ImportStats struct {
	// Received is the entry count of the accepted snapshot.
	Received int `json:"received"`
	// Warmed counts plans this import actually built.
	Warmed int `json:"warmed"`
	// Skipped counts entries already cached (or built concurrently).
	Skipped int `json:"skipped"`
	// Errors counts entries whose build failed; the import carries on
	// so one bad key cannot block a warm transfer.
	Errors int `json:"errors"`
}

// Import validates a snapshot and warms every entry, building absent
// plans off the serving path in snapshot (MRU-first) order so a
// capacity-bounded cache keeps the hottest keys. Validation failures —
// version skew, checksum mismatch — reject the whole snapshot; a
// failing entry build only counts against that entry.
func (c *PlanCache) Import(ctx context.Context, snap CacheSnapshot) (ImportStats, error) {
	if snap.Version != cacheSnapshotVersion {
		return ImportStats{}, badRequest("snapshot has version %d, want %d", snap.Version, cacheSnapshotVersion)
	}
	if want := snap.checksum(); snap.Checksum != want {
		return ImportStats{}, badRequest("snapshot failed its checksum: payload has %.12s, content hashes to %.12s",
			snap.Checksum, want)
	}
	stats := ImportStats{Received: len(snap.Entries)}
	// Warm back-to-front so the MRU-first snapshot order ends up as the
	// cache's recency order: the hottest key is inserted last and lands
	// at the front of the LRU list.
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		built, err := c.Warm(ctx, snap.Entries[i].Key)
		switch {
		case err != nil:
			stats.Errors++
		case built:
			stats.Warmed++
		default:
			stats.Skipped++
		}
	}
	c.imports.Add(1)
	return stats, nil
}

// handleCacheExport serves GET /v1/cache/snapshot: the warm-transfer
// export the router fetches on topology change.
//
//	GET /v1/cache/snapshot?limit=64    the limit hottest entries (0 = all)
func (s *Service) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if err := faultpoint.Hit(fpSnapshotExport); err != nil {
		telemetry.WriteJSONError(w, statusOf(err), err.Error())
		return
	}
	limit := defaultSnapshotLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			telemetry.WriteJSONError(w, http.StatusBadRequest, "parameter limit must be a non-negative integer")
			return
		}
		limit = v
	}
	s.writeJSON(r.Context(), w, http.StatusOK, s.cache.Export(limit))
}

// handleCacheImport serves PUT /v1/cache/snapshot: validate the
// payload, then warm every entry so subsequent requests for those keys
// are cache hits with no recompute on the serving path. Corrupt or
// truncated payloads are rejected with a 400 and quarantined to the
// snapshot directory (when configured) like a corrupt sweep
// checkpoint: the evidence survives for the operator.
func (s *Service) handleCacheImport(w http.ResponseWriter, r *http.Request) {
	if err := faultpoint.Hit(fpSnapshotImport); err != nil {
		telemetry.WriteJSONError(w, statusOf(err), err.Error())
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "read snapshot body: "+err.Error())
		return
	}
	var snap CacheSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		s.rejectSnapshot(r.Context(), w, body, badRequest("decode snapshot: %v", err))
		return
	}
	stats, err := s.cache.Import(r.Context(), snap)
	if err != nil {
		if statusOf(err) == http.StatusBadRequest {
			s.rejectSnapshot(r.Context(), w, body, err)
			return
		}
		telemetry.WriteJSONError(w, statusOf(err), err.Error())
		return
	}
	telemetry.SpanFrom(r.Context()).SetInt("warmed", int64(stats.Warmed))
	s.journal.Record(r.Context(), journal.SnapshotImport, "",
		fmt.Sprintf("%d entries, %d warmed", len(snap.Entries), stats.Warmed))
	s.writeJSON(r.Context(), w, http.StatusOK, stats)
}

// rejectSnapshot answers an invalid import, quarantining the payload
// bytes when a snapshot directory is configured.
func (s *Service) rejectSnapshot(ctx context.Context, w http.ResponseWriter, body []byte, err error) {
	msg := err.Error()
	if dst, qerr := quarantineSnapshot(s.cfg.SnapshotDir, body); qerr != nil {
		s.logger.ErrorContext(ctx, "quarantine rejected snapshot", "err", qerr)
	} else if dst != "" {
		s.logger.WarnContext(ctx, "rejected cache snapshot quarantined", "path", dst, "reason", msg)
		msg += " (payload quarantined to " + dst + ")"
	}
	telemetry.WriteJSONError(w, statusOf(err), msg)
}

// quarantineSnapshot writes the rejected payload to
// dir/snapshot-<hash12>.corrupt; an empty dir disables persistence.
// The content-derived name makes repeated rejections of the same bytes
// idempotent instead of unbounded.
func quarantineSnapshot(dir string, body []byte) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	dst := filepath.Join(dir, "snapshot-"+hex.EncodeToString(sum[:6])+".corrupt")
	if err := os.WriteFile(dst, body, 0o644); err != nil {
		return "", err
	}
	return dst, nil
}
