package workload

import (
	"strings"
	"testing"

	"flowsched/internal/switchnet"
)

// FuzzTraceSource fuzzes the streaming arrival-trace reader, read by the
// schedule ops of Next and PullBatch calls and then by Next to the end.
// Each op byte with its low bit clear is a Next; one with it set advances
// the round by its top three bits and pulls a batch of at most bits 1-4
// flows. The reader must never panic, must surface an Err whenever it
// stops before end of input, must keep every batch at or below its round
// and its max, and must answer a short batch with a Next released later.
// It is held differentially against the batch reader: any trace the
// streaming reader fully accepts must also be accepted by ReadTrace with
// the same flows in the same order, and the streamed releases must be
// non-decreasing (the streaming contract ReadTrace does not require).
func FuzzTraceSource(f *testing.F) {
	f.Add("release,in,out,demand\n0,0,0,1\n1,1,2,1\n", []byte{})
	f.Add("0,0,0,1\n2,3,3,1", []byte{0x03, 0x00, 0x23})
	f.Add("3,0,0,1\n1,0,0,1\n", []byte{0x1f}) // sorted for ReadTrace, not for streaming
	f.Add("release,in,out,demand\n", []byte{0x01})
	f.Add("", []byte{0x00, 0x01})
	f.Add("0,0,0,2\n", []byte{0x05})
	f.Add("0,0,0,1,5\n", []byte{})
	f.Add("-1,0,0,1\n", []byte{0x03})
	f.Add("release\n", []byte{0x00})
	f.Add("0,0,1,1\n0,1,2,1\n0,2,3,1\n3,3,3,1\n5,0,0,1\n", []byte{0x05, 0x07, 0x21, 0x00, 0x41, 0xff})
	f.Fuzz(func(t *testing.T, data string, ops []byte) {
		if len(data) > 1<<16 {
			return
		}
		sw := switchnet.NewSwitch(4, 4, 2)
		src := NewTraceSource(strings.NewReader(data), sw)
		var flows, buf []switchnet.Flow
		round := 0
		next := func() bool {
			fl, ok := src.Next()
			if ok {
				flows = append(flows, fl)
				round = max(round, fl.Release)
			}
			return ok
		}
		for _, op := range ops {
			if op&1 == 0 {
				next()
				continue
			}
			round += int(op >> 5)
			k := int(op>>1) & 15
			buf = src.PullBatch(buf[:0], round, k)
			if len(buf) > k {
				t.Fatalf("batch of %d exceeds max %d", len(buf), k)
			}
			for _, fl := range buf {
				if fl.Release > round {
					t.Fatalf("batch at round %d holds release %d", round, fl.Release)
				}
			}
			flows = append(flows, buf...)
			if at := round; len(buf) < k && next() && flows[len(flows)-1].Release <= at {
				t.Fatalf("short batch at round %d, yet Next yields release %d", at, flows[len(flows)-1].Release)
			}
		}
		for next() {
			if len(flows) > 1<<16 {
				t.Fatal("unbounded flows from bounded input")
			}
		}
		for i := 1; i < len(flows); i++ {
			if flows[i].Release < flows[i-1].Release {
				t.Fatalf("streamed release %d after %d", flows[i].Release, flows[i-1].Release)
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatal("Next yielded after reporting exhaustion")
		}
		if src.Err() != nil {
			return
		}
		inst, err := ReadTrace(strings.NewReader(data), sw)
		if err != nil {
			t.Fatalf("streaming accepted what batch reader rejects: %v", err)
		}
		if len(inst.Flows) != len(flows) {
			t.Fatalf("streaming yielded %d flows, batch %d", len(flows), len(inst.Flows))
		}
		for i := range flows {
			if flows[i] != inst.Flows[i] {
				t.Fatalf("flow %d: streamed %+v, batch %+v", i, flows[i], inst.Flows[i])
			}
		}
	})
}
