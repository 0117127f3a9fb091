package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A 9-byte header claiming an absurd payload used to reach make() and
// panic with "makeslice: len out of range".
func TestReadFromRejectsHugeDeclaredLength(t *testing.T) {
	hdr := binary.AppendUvarint(nil, 1<<62)
	if len(hdr) != 9 {
		t.Fatalf("precondition: header is %d bytes, want 9", len(hdr))
	}
	if _, err := ReadFrom(bytes.NewReader(hdr)); err == nil {
		t.Fatal("header declaring 2^62 bytes accepted")
	}
}

// A claim under the cap but far beyond the bytes present must fail as a
// truncation, having allocated in proportion to the input, not to the
// claim.
func TestReadFromBoundsAllocationByInput(t *testing.T) {
	raw := append(binary.AppendUvarint(nil, maxTraceBytes), "0123456789"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(raw), grew)
	}
}

// Every record's varint fields are checked: a malformed or missing field
// is reported as such, for every op that takes fields, and a field too
// large to be a count, index or handle is rejected before it reaches the
// mutator.
func TestReplayRejectsBadFields(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)
	big := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{}
	for op := opDefineType; op <= opAllocPretenured; op++ {
		if op == opPush || op == opPop {
			continue
		}
		cases[fmt.Sprintf("truncated/op%d", op)] = []byte{op}
		cases[fmt.Sprintf("overflow/op%d", op)] = append([]byte{op}, overflow...)
		if op != opRelease && op != opWork && op != opCollect {
			// a well-formed first field, then a truncated second one
			cases[fmt.Sprintf("midrecord/op%d", op)] = []byte{op, 1, 0x80}
		}
	}
	for name, raw := range cases {
		m := newMutator(t, smallCfg())
		err := Replay(&Trace{buf: raw}, m)
		if err == nil || !strings.Contains(err.Error(), "bad varint") {
			t.Errorf("%s: err = %v, want a bad varint error", name, err)
		}
	}
	for name, raw := range map[string][]byte{
		"work-out-of-range": append([]byte{opWork}, big...),
		"kind-out-of-range": {opDefineType, 0x80, 0x02, 0, 0, 1, 'x'},
		"array-with-slots":  {opDefineType, 1, 2, 0, 1, 'x'},
	} {
		m := newMutator(t, smallCfg())
		if err := Replay(&Trace{buf: raw}, m); err == nil {
			t.Errorf("%s: replayed without error", name)
		}
	}
}
