package obslog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// mergeKey is the sort key parsed off each journal line. Time orders
// events across processes (same-host wall clocks), the source name
// breaks cross-process ties deterministically, and the per-journal
// sequence number breaks same-source same-timestamp ties (fake-clock
// tests emit many events at one instant) — so a merge over any number
// of journals is a total order and re-running it is byte-stable.
type mergeKey struct {
	Time time.Time `json:"time"`
	Src  string    `json:"src"`
	Seq  uint64    `json:"seq"`
}

// MergeLines reads NDJSON journal streams and returns every line sorted
// into the single deterministic timeline. Lines must be journal-shaped
// (carry time/src/seq); a malformed line is an error, not a silent
// drop, because a merged journal with holes would misexplain a run.
// MergeLines is pure parsing; it needs no Journal of its own.
func MergeLines(streams ...io.Reader) ([][]byte, error) {
	type rec struct {
		key  mergeKey
		line []byte
	}
	var recs []rec
	for i, s := range streams {
		sc := bufio.NewScanner(s)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		ln := 0
		for sc.Scan() {
			ln++
			raw := sc.Bytes()
			if len(raw) == 0 {
				continue
			}
			var k mergeKey
			if err := json.Unmarshal(raw, &k); err != nil {
				return nil, fmt.Errorf("obslog: merge: stream %d line %d: %w", i, ln, err)
			}
			line := make([]byte, len(raw), len(raw)+1)
			copy(line, raw)
			recs = append(recs, rec{key: k, line: append(line, '\n')})
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("obslog: merge: stream %d: %w", i, err)
		}
	}
	sort.SliceStable(recs, func(a, b int) bool {
		ka, kb := recs[a].key, recs[b].key
		if !ka.Time.Equal(kb.Time) {
			return ka.Time.Before(kb.Time)
		}
		if ka.Src != kb.Src {
			return ka.Src < kb.Src
		}
		return ka.Seq < kb.Seq
	})
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.line
	}
	return out, nil
}

// Merge writes the merged timeline of the given streams to w as NDJSON.
func Merge(w io.Writer, streams ...io.Reader) error {
	lines, err := MergeLines(streams...)
	if err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
