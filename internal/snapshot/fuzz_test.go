package snapshot

import (
	"bytes"
	"testing"
)

// FuzzMachineState feeds arbitrary bytes to the machine-state decoder
// as a section body. Decoding must never panic, and whatever decodes
// cleanly (no error, every byte consumed) must re-encode to exactly
// the input: the decoder accepts only canonical encodings, which is
// what lets restore verification compare checkpoints byte for byte.
// The seed corpus in testdata/fuzz/FuzzMachineState holds a real
// guest capture and a few hand-built states.
func FuzzMachineState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Reader{b: data}
		s := MachineState(r)
		if r.Err() != nil || r.Remaining() != 0 {
			return
		}
		w := &Writer{}
		PutMachineState(w, s)
		if !bytes.Equal(w.buf, data) {
			t.Fatalf("decoded %d bytes cleanly but re-encoded %d different bytes", len(data), len(w.buf))
		}
	})
}
