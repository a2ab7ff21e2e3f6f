package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	uc "unisoncache"
)

// defaultSeed is the seed the pinned digests were recorded with.
const defaultSeed = 1

// pinnedDigests holds one line per result the benchmark can see at the
// default seed: "<label> <digest>". It is the correctness reference, not
// a cache of the current output: a change that alters any digest has
// changed the simulated results, and a performance change must not.
//
//go:embed digests.txt
var pinnedDigests string

// digest is the first 64 bits of the SHA-256 of the result's JSON form,
// which is also its wire form, so a served result and an in-process one
// digest alike.
func digest(res uc.Result) (string, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), nil
}

func parseDigests(text string) (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("digests: malformed line %q", line)
		}
		out[label] = d
	}
	return out, sc.Err()
}

// checker is the correctness gate every simulated result passes through,
// direct or served. At the default seed a result must match its pinned
// digest. At any other seed, and for a default-seed result outside the
// pinned set, repeats of one label must agree with its first result, and
// a fixed sample of labels is re-executed in process with Execute once
// the timed region is over (verify).
type checker struct {
	pinned map[string]string // nil away from the default seed

	mu       sync.Mutex
	seen     map[string]string
	deferred map[string]deferredCheck
}

type deferredCheck struct {
	run    uc.Run
	digest string
}

func newChecker(seed uint64) (*checker, error) {
	c := &checker{seen: map[string]string{}, deferred: map[string]deferredCheck{}}
	if seed == defaultSeed {
		pinned, err := parseDigests(pinnedDigests)
		if err != nil {
			return nil, err
		}
		c.pinned = pinned
	}
	return c, nil
}

// check reports whether res is a correct result for run, labelled by
// what it is (the same label is the same run).
func (c *checker) check(label string, run uc.Run, res uc.Result) bool {
	if res.UIPC <= 0 || math.IsNaN(res.UIPC) || math.IsInf(res.UIPC, 0) {
		return false
	}
	d, err := digest(res)
	if err != nil {
		return false
	}
	if want, ok := c.pinned[label]; ok {
		return d == want
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.seen[label]; ok {
		return d == first
	}
	c.seen[label] = d
	if c.pinned != nil || sampledLabel(label) {
		c.deferred[label] = deferredCheck{run: run, digest: d}
	}
	return true
}

// verify re-executes the deferred sample in process, serially and
// outside any timed region, and returns the labels whose result differed.
func (c *checker) verify() ([]string, error) {
	c.mu.Lock()
	labels := make([]string, 0, len(c.deferred))
	for l := range c.deferred {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	checks := make([]deferredCheck, len(labels))
	for i, l := range labels {
		checks[i] = c.deferred[l]
	}
	c.mu.Unlock()
	var bad []string
	for i, l := range labels {
		dc := checks[i]
		res, err := uc.Execute(dc.run)
		if err != nil {
			return nil, fmt.Errorf("re-executing %s: %w", l, err)
		}
		d, err := digest(res)
		if err != nil {
			return nil, err
		}
		if d != dc.digest {
			bad = append(bad, l)
		}
	}
	return bad, nil
}

// writeDigests renders a digest file for results by label, sorted.
func writeDigests(results map[string]string) []byte {
	labels := make([]string, 0, len(results))
	for l := range results {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var buf bytes.Buffer
	buf.WriteString("# Result digests at the default seed: <label> <first 64 bits of SHA-256 of the Result JSON>.\n")
	for _, l := range labels {
		fmt.Fprintf(&buf, "%s %s\n", l, results[l])
	}
	return buf.Bytes()
}
