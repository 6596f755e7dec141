package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// batchSeeds are valid MsgExecBatch payloads for the fuzzer and the
// mutation test to start from.
func batchSeeds() [][]byte {
	return [][]byte{
		AppendExecBatch(nil, `BEGIN TRAN AS OF "2004-08-12 10:15:20"`, "SELECT v FROM t WHERE k = 1"),
		AppendExecBatch(nil, "BEGIN TRAN", "COMMIT"),
		AppendExecBatch(nil, "SELECT 1"),
		AppendExecBatch(nil, "", "", ""),
		AppendExecBatch(nil, strings.Repeat("x", 200), "y"), // two-byte length prefix
	}
}

func FuzzExecBatch(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0})                                     // zero statements
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})       // hostile count
	f.Add([]byte{2, 5, 'B', 'E'})                        // truncated string
	f.Add([]byte{0x81, 0x00, 1, 'x'})                    // count in a non-minimal varint
	f.Add(append(AppendExecBatch(nil, "SELECT 1"), 0))   // trailing byte
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // truncated length varint
	f.Fuzz(func(t *testing.T, payload []byte) { checkExecBatch(t, payload) })
}

// TestExecBatchDecodeMutations runs FuzzExecBatch's property over 5 000
// seeded mutations of the seeds — truncations, overwritten bytes and
// appended junk — so the decoder's input space is exercised in tier-1 even
// where the fuzzing engine cannot run.
func TestExecBatchDecodeMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := batchSeeds()
	var accepted, rejected int
	for i := 0; i < 5000; i++ {
		p := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		if rng.Intn(4) == 0 {
			p = p[:rng.Intn(len(p)+1)]
		}
		for n := rng.Intn(3); n > 0 && len(p) > 0; n-- {
			// Half the flips land in the first bytes, where the count and
			// the first length prefix live.
			at := rng.Intn(len(p))
			if rng.Intn(2) == 0 {
				at = rng.Intn(min(len(p), 4))
			}
			p[at] = byte(rng.Intn(256))
		}
		if rng.Intn(8) == 0 {
			p = append(p, byte(rng.Intn(256)))
		}
		if checkExecBatch(t, p) {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d mutations accepted, %d rejected: the mutations do not reach both outcomes", accepted, rejected)
	}
}

// checkExecBatch is the decoder property: it never panics; whatever it
// accepts holds at least one and at most len(payload) statements and
// re-encodes to exactly the payload (the encoding is canonical). It reports
// whether the payload was accepted.
func checkExecBatch(t *testing.T, payload []byte) bool {
	stmts, err := ParseExecBatch(payload)
	if err != nil {
		return false
	}
	if len(stmts) == 0 || len(stmts) > len(payload) {
		t.Fatalf("accepted %d statements from %d bytes", len(stmts), len(payload))
	}
	if re := AppendExecBatch(nil, stmts...); !bytes.Equal(re, payload) {
		t.Fatalf("re-encoding %q gives %x, decoded from %x", stmts, re, payload)
	}
	return true
}
