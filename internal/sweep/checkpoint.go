package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"linesearch/internal/faultpoint"
)

// checkpointVersion guards the on-disk layout; bump on incompatible
// changes so stale files are ignored instead of misread. Version 2
// added the checksum field.
const checkpointVersion = 2

// Fault points in the checkpoint path. Tests and chaos schedules arm
// these to prove a torn or failed write never silently loses a resume.
const (
	fpCheckpointWrite  = "checkpoint.write"
	fpCheckpointSync   = "checkpoint.sync"
	fpCheckpointRename = "checkpoint.rename"
	fpCheckpointRead   = "checkpoint.read"
)

// Checkpoint is the durable snapshot of a job: the normalised spec (so
// a bare checkpoint file is self-describing) and every completed cell.
// It is written atomically and durably (temp file, fsync, rename,
// directory fsync) on a cell-count cadence and at every terminal
// state, and read back on submit to skip completed cells. Checksum is
// the hex SHA-256 of the canonical encoding; a mismatch on read means
// torn or corrupted bytes and fails loudly instead of silently
// restarting the sweep.
type Checkpoint struct {
	Version   int       `json:"version"`
	ID        string    `json:"id"`
	SpecHash  string    `json:"spec_hash"`
	Spec      Spec      `json:"spec"`
	Cells     []Cell    `json:"cells"`
	UpdatedAt time.Time `json:"updated_at"`
	Checksum  string    `json:"checksum"`
}

// checksum returns the hex SHA-256 of the checkpoint's canonical form:
// the compact JSON encoding with the Checksum field blank. Computed on
// the decoded value, it is independent of on-disk whitespace.
func (cp Checkpoint) checksum() string {
	cp.Checksum = ""
	blob, err := json.Marshal(cp)
	if err != nil {
		// Checkpoint is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: marshal checkpoint: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Verify checks a decoded checkpoint's integrity: the wire version
// and the content checksum. It is what a replica owner runs on every
// checkpoint pushed to it before trusting a byte of it.
func (cp Checkpoint) Verify() error { return cp.verify(cp.ID, nil) }

// verify is Verify naming the checkpoint id in its errors. A checksum
// failure means damaged bytes; damaged, when set, is called then and
// its note goes into the error.
func (cp Checkpoint) verify(id string, damaged func() string) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("sweep: checkpoint %s has version %d, want %d", id, cp.Version, checkpointVersion)
	}
	if want := cp.checksum(); cp.Checksum != want {
		return fmt.Errorf("sweep: checkpoint %s failed its checksum%s: file has %.12s, content hashes to %.12s",
			id, noteOf(damaged), cp.Checksum, want)
	}
	return nil
}

// noteOf runs a damage hook and formats its note as " (note)"; a nil
// hook adds nothing.
func noteOf(damaged func() string) string {
	if damaged == nil {
		return ""
	}
	return " (" + damaged() + ")"
}

// checkpointPath returns the checkpoint file for a job ID.
func checkpointPath(dir, id string) string {
	return filepath.Join(dir, id+".checkpoint.json")
}

// writeCheckpoint persists a checkpoint atomically and durably,
// stamping the version, timestamp and checksum, and returns the
// stamped value — the exact content now on disk, which is what the
// replication hook streams to the other ring owners (replica files
// must carry the home checksum byte for byte, or anti-entropy would
// see phantom divergence).
func writeCheckpoint(dir string, cp Checkpoint) (Checkpoint, error) {
	if err := faultpoint.Hit(fpCheckpointWrite); err != nil {
		return cp, fmt.Errorf("sweep: write checkpoint: %w", err)
	}
	sort.Slice(cp.Cells, func(i, j int) bool { return cp.Cells[i].Index < cp.Cells[j].Index })
	cp.Version = checkpointVersion
	cp.UpdatedAt = time.Now().UTC()
	cp.Checksum = cp.checksum()
	blob, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return cp, fmt.Errorf("sweep: marshal checkpoint: %w", err)
	}
	if err := writeFileDurable(dir, cp.ID, checkpointPath(dir, cp.ID), append(blob, '\n')); err != nil {
		return cp, err
	}
	return cp, nil
}

// writeFileDurable writes blob atomically and durably, creating dir
// if needed: write to a temp file, fsync it, rename over the target,
// fsync the directory. A crash at any point leaves either the
// previous file or the new one — never a torn file the next start
// would trust. Shared by the home checkpoint writer and the replica
// store, so both sides of a replicated checkpoint get the same
// durability.
func writeFileDurable(dir, id, path string, blob []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, id+".tmp-*")
	if err != nil {
		return fmt.Errorf("sweep: checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(blob)
	// Sync before rename: the rename is only crash-safe once the data
	// it publishes is on the platter.
	serr := faultpoint.Hit(fpCheckpointSync)
	if serr == nil && werr == nil {
		serr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: write checkpoint: %w", errors.Join(werr, serr, cerr))
	}
	if err := faultpoint.Hit(fpCheckpointRename); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: publish checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: publish checkpoint: %w", err)
	}
	// Sync the directory so the rename itself survives a crash.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sweep: sync checkpoint dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}

// readCheckpoint loads the checkpoint for (dir, id). A missing file is
// (nil, nil): a fresh job. A present but unreadable, version-skewed or
// hash-mismatched file is an error — silently recomputing could mask
// data corruption the operator should see. Undecodable or
// checksum-mismatched files are additionally moved aside to
// "<name>.corrupt" so the evidence survives and a deliberate resubmit
// can start fresh.
func readCheckpoint(dir, id, wantHash string) (*Checkpoint, error) {
	if err := faultpoint.Hit(fpCheckpointRead); err != nil {
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	path := checkpointPath(dir, id)
	cp, err := decodeCheckpoint(path, id, func() string { return quarantineCorrupt(path) })
	if cp == nil || err != nil {
		return nil, err
	}
	if cp.SpecHash != wantHash {
		return nil, fmt.Errorf("sweep: checkpoint %s was written for a different spec (hash %.12s, want %.12s)", id, cp.SpecHash, wantHash)
	}
	return cp, nil
}

// LoadCheckpoint loads and verifies (version, checksum) the checkpoint
// for id in dir, with no spec-hash expectation: the replication read
// path, where the caller identifies content by checksum rather than by
// the spec it was submitted under. Missing is (nil, nil); a corrupt
// file is an error but is left in place (the home read path owns
// quarantining).
func LoadCheckpoint(dir, id string) (*Checkpoint, error) {
	return decodeCheckpoint(checkpointPath(dir, id), id, nil)
}

// decodeCheckpoint reads, decodes and verifies the checkpoint file at
// path, naming it id in errors: the one decode step behind
// readCheckpoint, LoadCheckpoint and ScanCheckpoints. A missing file is
// (nil, nil). damaged, when set, is called on undecodable or
// checksum-mismatched bytes, and its note goes into the error.
func decodeCheckpoint(path, id string, damaged func() string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("sweep: decode checkpoint %s%s: %w", id, noteOf(damaged), err)
	}
	if err := cp.verify(id, damaged); err != nil {
		return nil, err
	}
	return &cp, nil
}

// quarantineCorrupt moves a corrupt checkpoint aside and describes the
// outcome for the error message.
func quarantineCorrupt(path string) string {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		return fmt.Sprintf("could not be moved aside: %v", err)
	}
	return "moved aside to " + dst
}

// removeCheckpoint deletes a job's checkpoint file (missing is fine).
func removeCheckpoint(dir, id string) error {
	err := os.Remove(checkpointPath(dir, id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// CheckpointInfo is one checkpoint's identity in an anti-entropy
// digest: enough to decide whether two owners hold the same bytes
// (equal checksums) and, when they differ, which one is ahead (more
// cells, then the later timestamp).
type CheckpointInfo struct {
	ID        string    `json:"id"`
	SpecHash  string    `json:"spec_hash"`
	Checksum  string    `json:"checksum"`
	Cells     int       `json:"cells"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Newer reports whether a should replace b when both describe the
// same job: strictly more completed cells wins, then the later write.
func (a CheckpointInfo) Newer(b CheckpointInfo) bool {
	if a.Cells != b.Cells {
		return a.Cells > b.Cells
	}
	return a.UpdatedAt.After(b.UpdatedAt)
}

// info summarizes a checkpoint for digests.
func (cp Checkpoint) info() CheckpointInfo {
	return CheckpointInfo{
		ID:        cp.ID,
		SpecHash:  cp.SpecHash,
		Checksum:  cp.Checksum,
		Cells:     len(cp.Cells),
		UpdatedAt: cp.UpdatedAt,
	}
}

// ScanCheckpoints summarizes every valid checkpoint in dir, keyed by
// job ID. Unreadable, undecodable or checksum-mismatched files are
// skipped (anti-entropy treats them as absent and re-replicates); a
// missing directory is an empty map.
func ScanCheckpoints(dir string) map[string]CheckpointInfo {
	out := make(map[string]CheckpointInfo)
	matches, err := filepath.Glob(filepath.Join(dir, "*.checkpoint.json"))
	if err != nil {
		return out
	}
	for _, path := range matches {
		cp, err := decodeCheckpoint(path, filepath.Base(path), nil)
		if cp == nil || err != nil {
			continue
		}
		out[cp.ID] = cp.info()
	}
	return out
}

// cleanupOrphans removes "*.tmp-*" temp files that a crash between
// CreateTemp and rename left in the checkpoint directory. Called at
// manager startup; a missing directory is a clean zero.
func cleanupOrphans(dir string) (removed int, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		return 0, err
	}
	var errs []error
	for _, path := range matches {
		if rerr := os.Remove(path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			errs = append(errs, rerr)
			continue
		}
		removed++
	}
	return removed, errors.Join(errs...)
}
