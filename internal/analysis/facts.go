package analysis

import (
	"encoding/json"
	"fmt"
)

// factStore is the cross-package fact channel: per analyzer, per object
// key (see objectKey), one JSON-encoded fact. One store lives for the
// whole run and packages are analyzed in dependency order, so a fact an
// upstream pass exports is there when a downstream pass imports it.
type factStore struct {
	data map[string]map[string]json.RawMessage
}

func newFactStore() *factStore {
	return &factStore{data: map[string]map[string]json.RawMessage{}}
}

func (s *factStore) export(analyzer, key string, val any) {
	raw, err := json.Marshal(val)
	if err != nil {
		panic(fmt.Sprintf("analysis: unencodable fact %T: %v", val, err))
	}
	m := s.data[analyzer]
	if m == nil {
		m = map[string]json.RawMessage{}
		s.data[analyzer] = m
	}
	m[key] = raw
}

func (s *factStore) importFact(analyzer, key string, into any) bool {
	raw, ok := s.data[analyzer][key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, into) == nil
}
