package daemon

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/switchnet"
)

const canonicalBody = `{"flows":[{"in":0,"out":1,"demand":1},{"in":12,"out":3,"demand":2}]}`

// decodeCorpus is bodies on both sides of the scanner's line. fast says
// which side: true must be decoded by scanFlows (or the fast path is not
// serving the traffic it was built for), false must be left to
// encoding/json (the scanner has no business judging them).
var decodeCorpus = []struct {
	name string
	body string
	fast bool
}{
	{"canonical", canonicalBody, true},
	{"marshalled", `{"flows":[{"in":5,"out":7,"demand":1,"release":0}]}`, true},
	{"reordered keys", `{"flows":[{"demand":1,"release":9,"out":1,"in":0}]}`, true},
	{"whitespace everywhere", " {\n\t\"flows\" : [ { \"in\" : 0 ,\r\n \"out\" : 1 , \"demand\" : 1 } , { } ] } \n", true},
	{"empty elements", `{"flows":[{},{}]}`, true},
	{"empty array", `{"flows":[]}`, true},
	{"repeated key", `{"flows":[{"in":1,"in":2}]}`, true},
	{"negative", `{"flows":[{"in":-1,"out":-0,"demand":0}]}`, true},
	{"18 digits", `{"flows":[{"in":123456789012345678}]}`, true},

	{"upper-case keys", `{"FLOWS":[{"IN":0,"Out":1,"dEmand":1}]}`, false},
	{"padded key", `{"flows":[{" in":0}]}`, false},
	{"escaped key", `{"flows":[{"\u0069n":3}]}`, false},
	{"float", `{"flows":[{"in":1.0}]}`, false},
	{"fraction", `{"flows":[{"in":1.5}]}`, false},
	{"exponent", `{"flows":[{"demand":1e2}]}`, false},
	{"leading zero", `{"flows":[{"in":01}]}`, false},
	{"bare minus", `{"flows":[{"in":-}]}`, false},
	{"19 digits", `{"flows":[{"in":1234567890123456789}]}`, false},
	{"30 digits", `{"flows":[{"in":123456789012345678901234567890}]}`, false},
	{"string number", `{"flows":[{"in":"1"}]}`, false},
	{"null flow", `{"flows":[null]}`, false},
	{"null field", `{"flows":[{"in":null}]}`, false},
	{"null array", `{"flows":null}`, false},
	{"no flows member", `{}`, false},
	{"duplicate flows", `{"flows":[{"in":1}],"flows":[{"in":2},{"in":3}]}`, false},
	{"unknown top-level member", `{"flows":[{"in":1}],"note":"x"}`, false},
	{"unknown flow member", `{"flows":[{"in":1,"weight":3}]}`, false},
	{"trailing garbage", canonicalBody + ` x`, false},
	{"second value", canonicalBody + canonicalBody, false},
	{"trailing comma", `{"flows":[{"in":1},]}`, false},
	{"array body", `[{"in":1}]`, false},
	{"byte order mark", "\ufeff" + canonicalBody, false},
	{"empty", ``, false},
}

// TestScanFlowsLine pins which bodies take the one-pass decoder, and
// that either way decodeFlows answers what encoding/json answers.
func TestScanFlowsLine(t *testing.T) {
	for _, tc := range decodeCorpus {
		_, fast := scanFlows([]byte(tc.body), nil)
		if fast != tc.fast {
			t.Errorf("%s: scanner accepted = %v, want %v", tc.name, fast, tc.fast)
		}
		checkAgainstJSON(t, []byte(tc.body))
	}
}

// checkAgainstJSON holds decodeFlows to the decoder it replaced: same
// bytes, same flows, an error exactly when encoding/json has one. On the
// fallback path that is true by construction; on the fast path it is the
// property the scanner must earn. The body is decoded twice: into no
// scratch, and into a scratch whose spare capacity holds nonzero flows,
// as a pooled one does, so an element that inherited a field it does not
// name would differ.
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	var want flowsRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	stale := make([]switchnet.Flow, 64)
	for i := range stale {
		stale[i] = switchnet.Flow{In: 7, Out: 9, Demand: 11, Release: 13 + i}
	}
	for _, dst := range [][]switchnet.Flow{nil, stale[:0]} {
		got, fallback, err := decodeFlows(body, dst)
		if !fallback && wantErr != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, wantErr)
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: decodeFlows error %v, encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !slices.Equal(got, want.Flows) {
			t.Fatalf("%q (fallback=%v, scratch cap %d):\n decodeFlows   %+v\n encoding/json %+v",
				body, fallback, cap(dst), got, want.Flows)
		}
		if !fallback && len(got) > 0 && len(got) <= cap(dst) && &got[0] != &dst[:1][0] {
			t.Fatalf("%q: %d flows fit the scratch, decoded elsewhere", body, len(got))
		}
	}
}

// FuzzDecodeFlows is the differential: whatever the scanner accepts,
// encoding/json accepts too and decodes to the identical flows.
func FuzzDecodeFlows(f *testing.F) {
	for _, tc := range decodeCorpus {
		f.Add([]byte(tc.body))
	}
	for i := range canonicalBody {
		f.Add([]byte(canonicalBody[:i]))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstJSON(t, body) })
}

// TestScanFlowsMarshalled: what encoding/json writes for a flowsRequest —
// what the repo's own clients send — stays on the fast path.
func TestScanFlowsMarshalled(t *testing.T) {
	flows := make([]switchnet.Flow, 300)
	for i := range flows {
		flows[i] = switchnet.Flow{In: i % 150, Out: (i * 7) % 150, Demand: 1 + i%3}
	}
	body, err := json.Marshal(flowsRequest{flows})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := scanFlows(body, nil)
	if !ok || !slices.Equal(got, flows) {
		t.Fatalf("scanner ok=%v on a marshalled request; %d flows back", ok, len(got))
	}
}

// BenchmarkDecodeFlows decodes the body the benchmark harness posts —
// json.Marshal of 256 unit flows on 150 ports, "release" included — into
// a reused scratch slice, as the handler does with its pooled one.
func BenchmarkDecodeFlows(b *testing.B) {
	const n, ports = 256, 150
	rng := rand.New(rand.NewSource(1))
	flows := make([]switchnet.Flow, n)
	for i := range flows {
		flows[i] = switchnet.Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1}
	}
	body, err := json.Marshal(flowsRequest{flows})
	if err != nil {
		b.Fatal(err)
	}
	var dst []switchnet.Flow
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		var fallback bool
		if dst, fallback, err = decodeFlows(body, dst[:0]); fallback || err != nil || len(dst) != n {
			b.Fatalf("fallback=%v err=%v, %d flows", fallback, err, len(dst))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/flow")
}
