// Package artifact owns the on-disk mechanics every evidence store in this
// repository shares: witness manifests, shard results and checkpoints, and
// the sepwatch build ledger. It decides three things once:
//
//   - Sealing: a record's content ID is the first 16 hex digits of the
//     SHA-256 of its encoding/json form with the ID field blank. Seal and
//     Verify compute it in place, so any edit to a sealed record is caught.
//   - Writing: every write is a same-directory temp file plus one rename, so
//     a reader (or a process killed mid-write) sees the previous complete
//     file or the new one, never a torn file. Appending to a JSONL log is a
//     rewrite of the already-validated bytes plus the new line.
//   - Reading: JSONL logs are split into lines of bounded length, and blobs
//     are verified against their SHA-256 address. Readers are total: any
//     bytes yield records or an error, never a panic.
//
// Atomicity is against process death, not power loss: writes are not
// fsynced.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// maxLine bounds one JSONL record; a record is a few KB of metadata plus
// encoded steps or violations, far below this.
const maxLine = 16 << 20

// Hash is the blob address of b: its SHA-256 in lowercase hex.
func Hash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// IsHash reports whether s is well formed as a blob address.
func IsHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// contentID is the short content address of v's canonical JSON.
func contentID(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return Hash(b)[:16], nil
}

// Seal sets *id to the content ID of v, computed with *id blank. v must be
// the record that holds id, usually a pointer: Seal(r, &r.ID).
func Seal(v any, id *string) error {
	*id = ""
	sum, err := contentID(v)
	*id = sum
	return err
}

// Verify reports an error unless *id is the content ID of v. It blanks *id
// while hashing and restores it before returning.
func Verify(v any, id *string) error {
	got := *id
	*id = ""
	want, err := contentID(v)
	*id = got
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("ID %q does not match content %q: truncated or tampered", got, want)
	}
	return nil
}

// WriteFile replaces path with the concatenation of parts, through a
// same-directory temp file and a rename.
func WriteFile(path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = tmp.Write(p)
		}
	}
	if err == nil {
		// CreateTemp makes the file private; artifacts are shared evidence.
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// AppendLine replaces the JSONL file at path with old, the content the
// caller read and validated, followed by line. A missing final newline in
// old is supplied, so the new record always starts a line of its own.
func AppendLine(path string, old, line []byte) error {
	var sep []byte
	if len(old) > 0 && old[len(old)-1] != '\n' {
		sep = []byte{'\n'}
	}
	return WriteFile(path, old, sep, line, []byte{'\n'})
}

// ReadFile returns the content of path, or nil for a missing file: an
// absent log is an empty one.
func ReadFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return b, err
}

// ReadLines calls fn with every non-blank line of a JSONL document, trimmed
// of surrounding space. A line longer than the bound, or an error from fn,
// stops the read; the error carries the 1-based line number.
func ReadLines(b []byte, fn func(line []byte) error) error {
	for ln := 1; len(b) > 0; ln++ {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) > maxLine {
			return fmt.Errorf("line %d: longer than %d bytes", ln, maxLine)
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
	}
	return nil
}

// PutBlob stores b in dir under its address unless that address is already
// present.
func PutBlob(dir string, b []byte) error {
	path := filepath.Join(dir, Hash(b))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		return err
	}
	return WriteFile(path, b)
}

// GetBlob reads the blob at addr in dir and verifies it against the address.
func GetBlob(dir, addr string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, addr))
	if err != nil {
		return nil, err
	}
	if Hash(b) != addr {
		return nil, fmt.Errorf("blob %s: hash mismatch", addr)
	}
	return b, nil
}
