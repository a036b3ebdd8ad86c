package daemon

import (
	"bytes"
	"encoding/json"
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
		_, fast := scanFlows([]byte(tc.body))
		if fast != tc.fast {
			t.Errorf("%s: scanner accepted = %v, want %v", tc.name, fast, tc.fast)
		}
		checkAgainstJSON(t, []byte(tc.body))
	}
}

// checkAgainstJSON holds decodeFlows to the decoder it replaced: same
// bytes, same flows, an error exactly when encoding/json has one. On the
// fallback path that is true by construction; on the fast path it is the
// property the scanner must earn.
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	var want flowsRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, fallback, err := decodeFlows(body)
	if !fallback && wantErr != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, wantErr)
	}
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: decodeFlows error %v, encoding/json error %v", body, err, wantErr)
	}
	if err == nil && !slices.Equal(got, want.Flows) {
		t.Fatalf("%q (fallback=%v):\n decodeFlows   %+v\n encoding/json %+v", body, fallback, got, want.Flows)
	}
	if !fallback && cap(got) != len(got) {
		t.Fatalf("%q: scanner sized its slice %d for %d flows", body, cap(got), len(got))
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
	got, ok := scanFlows(body)
	if !ok || !slices.Equal(got, flows) {
		t.Fatalf("scanner ok=%v on a marshalled request; %d flows back", ok, len(got))
	}
}
