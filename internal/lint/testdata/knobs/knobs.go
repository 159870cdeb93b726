// Fixture for the conf-knob-registry analyzer: a marked registry with a
// live knob, a dead knob, a startup-exempt knob, an undeclared literal at a
// use site, and a knob read through Conf at two sites.
package knobs

type Knob struct {
	Default string
	Startup bool
}

// The single conf table for this fixture package.
//
// lint:knob-registry
var registry = map[string]Knob{
	"hive.fixture.enabled": {Default: "true"},
	"hive.fixture.dead":    {Default: "0"}, // want "dead knob"
	"hive.fixture.boot":    {Default: "4", Startup: true},
	"hive.fixture.twice":   {Default: "0"},
}

type session struct{ conf map[string]string }

func (s *session) Conf(key string) string { return s.conf[key] }

// resolve is the one place a knob should be read; the startup knob may be
// read anywhere.
func (s *session) resolve() (string, string) {
	return s.Conf("hive.fixture.twice"), s.Conf("hive.fixture.boot")
}

func (s *session) later() string {
	_ = s.Conf("hive.fixture.boot")
	return s.Conf("hive.fixture.twice") // want "read at more than one site"
}

func read(conf map[string]string) string {
	if v := conf["hive.fixture.enabled"]; v != "" {
		return v
	}
	return conf["hive.fixture.typo"] // want "not declared in the knob registry"
}
