package netserve

import (
	"errors"
	"testing"

	"repro/internal/hix"
	"repro/internal/hixrt"
	"repro/internal/wire"
)

// TestViolationTyped: the one helper behind every refusal in the
// read/execute path queues the Error frame the client sees and returns
// the same message as an error of the matching class.
func TestViolationTyped(t *testing.T) {
	for _, tc := range []struct {
		kind error
		code uint32
	}{
		{hix.ErrProtocol, wire.ECodeProto},
		{hixrt.ErrRequest, wire.ECodeRequest},
	} {
		c := &conn{sendQ: make(chan outFrame, 1)}
		err := c.violation(tc.kind, "length %d out of range", 7)
		if !errors.Is(err, tc.kind) {
			t.Fatalf("violation(%v) returned %v, which does not wrap it", tc.kind, err)
		}
		f := <-c.sendQ
		re, derr := wire.DecodeError(f.body)
		if f.op != wire.OpError || f.tagged || derr != nil {
			t.Fatalf("queued frame op=%v tagged=%v decode=%v, want an untagged Error", f.op, f.tagged, derr)
		}
		if re.Code != tc.code || re.Msg != "length 7 out of range" {
			t.Fatalf("queued error %d %q, want code %d with the formatted message", re.Code, re.Msg, tc.code)
		}
	}
}
