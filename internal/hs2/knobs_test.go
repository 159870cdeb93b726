package hs2

import (
	"strings"
	"testing"
)

// TestSetRejectsUnknownHiveKey: a SET of a hive.* key the server never reads
// — misspelled, or retired like hive.sort.parallel — is an error naming the
// key, every registered key is accepted, and other namespaces are free.
func TestSetRejectsUnknownHiveKey(t *testing.T) {
	s := NewServer(Config{}).NewSession()
	for _, key := range []string{"hive.sort.parallel", "hive.spool.parallel", "hive.paralellism", "HIVE.No.Such.Key"} {
		_, err := s.Execute("SET " + key + " = false")
		if err == nil || !strings.Contains(err.Error(), strings.ToLower(key)) {
			t.Errorf("SET %s: err = %v, want an error naming the key", key, err)
		}
		if _, stored := s.conf[strings.ToLower(key)]; stored {
			t.Errorf("SET %s: rejected key was stored", key)
		}
	}
	for key, knob := range knobRegistry {
		if _, err := s.Execute("SET " + key + " = " + knob.Default); err != nil {
			t.Errorf("SET %s: registered key rejected: %v", key, err)
		}
	}
	mustExec(t, s, "SET mapreduce.job.name = nightly")
	if got := s.Conf("mapreduce.job.name"); got != "nightly" {
		t.Errorf("non-hive key: Conf = %q, want it stored", got)
	}
}
