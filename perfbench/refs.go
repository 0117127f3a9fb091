package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// refs.json holds, for the input seeds of each shipped benchmark seed
// (see inputSeeds), the Appel minimum heaps that paper-roomy takes as
// fixed inputs and the reference digest of every job's simulated output.
// `perfbench --write-refs perfbench/refs.json --seed N` regenerates the
// entries of benchmark seed N.
//
//go:embed refs.json
var refsJSON []byte

type seedRefs struct {
	MinHeaps map[string]int `json:"min_heaps"`
	// Digests maps workload → job key → the first 16 hex digits of the
	// SHA-256 of the job's payload.
	Digests map[string]map[string]string `json:"digests"`
}

type refFile struct {
	Seeds map[string]*seedRefs `json:"seeds"`
}

var refs = mustParseRefs(refsJSON)

func parseRefs(b []byte) (*refFile, error) {
	var f refFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, err
	}
	if f.Seeds == nil {
		f.Seeds = map[string]*seedRefs{}
	}
	return &f, nil
}

func mustParseRefs(b []byte) *refFile {
	f, err := parseRefs(b)
	if err != nil {
		panic(fmt.Sprintf("perfbench: embedded refs.json: %v", err))
	}
	return f
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

func refMinHeaps(seed int64) (map[string]int, bool) {
	r := refs.Seeds[seedKey(seed)]
	if r == nil || len(r.MinHeaps) == 0 {
		return nil, false
	}
	return r.MinHeaps, true
}

func refDigests(seed int64, workload string) (map[string]string, bool) {
	r := refs.Seeds[seedKey(seed)]
	if r == nil || r.Digests[workload] == nil {
		return nil, false
	}
	return r.Digests[workload], true
}

const digestLen = 16

// writeRefs recomputes the entries of a benchmark seed's input seeds from
// scratch, minimum heaps included, with one untraced pass of every
// workload, and writes them into the reference file at path, keeping its
// other entries.
func writeRefs(path string, seed int64, work string) error {
	if b, err := os.ReadFile(path); err == nil {
		if refs, err = parseRefs(b); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, s := range inputSeeds(seed) {
		if err := recordSeed(s, work); err != nil {
			return fmt.Errorf("input seed %d: %w", s, err)
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordSeed(seed int64, work string) error {
	delete(refs.Seeds, seedKey(seed))
	r := &seedRefs{Digests: map[string]map[string]string{}}
	for _, w := range workloads {
		inst, err := w.setup(seed, work)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if p, ok := inst.(*paperInst); ok && !p.tight {
			r.MinHeaps = p.mins
		}
		out, err := inst.pass(0, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(out.problems) > 0 {
			return fmt.Errorf("%s: %v", w.name, out.problems)
		}
		d := map[string]string{}
		for _, rec := range out.recs {
			if !rec.Outcome.Completed() {
				return fmt.Errorf("%s: job %s: %s %s", w.name, rec.Key, rec.Outcome, rec.Error)
			}
			d[rec.Key.String()] = payloadDigest(rec.Payload)
		}
		for k, v := range out.extra {
			d[k] = short(v)
		}
		r.Digests[w.name] = d
	}
	refs.Seeds[seedKey(seed)] = r
	return nil
}
