package queue

import "tcpburst/internal/telemetry"

// The paper's disciplines — fifo, red and drr — report the way they did
// before the registry existed: summaries label them by bare name (a RED
// gateway with ECN is still "red"), RED's counters fill the red* summary
// fields and the red.* telemetry series, and DRR's evictions count under
// drr.evictions. Every other discipline labels itself by its canonical spec
// text and reports through the generic aqm.* series and aqm* fields. The
// helpers below hold that split, so the harness never dispatches on a
// discipline name.

// Reporting says which summary fields carry a discipline's end-of-run
// counters.
type Reporting int

const (
	// ReportNone: the discipline keeps no drop or mark counters (fifo, drr).
	ReportNone Reporting = iota
	// ReportRED: RED's counters, in the summary's red* fields.
	ReportRED
	// ReportAQM: the generic StatsReporter counters, in the aqm* fields.
	ReportAQM
)

// paperDiscipline reports whether name is one of the paper's disciplines.
func paperDiscipline(name string) bool {
	return name == "fifo" || name == "red" || name == "drr"
}

// Label names the discipline in experiment summaries: the bare name for
// the paper's disciplines, the canonical spec text otherwise.
func (s Spec) Label() string {
	if paperDiscipline(s.Name) {
		return s.Name
	}
	return s.String()
}

// Reporting returns where the discipline's end-of-run counters go.
func (s Spec) Reporting() Reporting {
	switch {
	case s.Name == "red":
		return ReportRED
	case paperDiscipline(s.Name):
		return ReportNone
	}
	return ReportAQM
}

// RegisterMetrics registers the discipline's telemetry counters in reg —
// red.*, drr.evictions, or the generic aqm.* set — and returns the handles
// for BuildContext.Metrics. fifo publishes none.
func (s Spec) RegisterMetrics(reg *telemetry.Registry) Metrics {
	switch s.Name {
	case "fifo":
		return Metrics{}
	case "red":
		return Metrics{
			EarlyDrops:  reg.Counter("red.early_drops"),
			ForcedDrops: reg.Counter("red.forced_drops"),
			Marks:       reg.Counter("red.marks"),
		}
	case "drr":
		return Metrics{Evictions: reg.Counter("drr.evictions")}
	}
	// Which of these move depends on the discipline: CoDel never sheds, a
	// token bucket never marks.
	return Metrics{
		EarlyDrops:  reg.Counter("aqm.early_drops"),
		ForcedDrops: reg.Counter("aqm.forced_drops"),
		Marks:       reg.Counter("aqm.marks"),
		Shed:        reg.Counter("aqm.shed"),
		Evictions:   reg.Counter("aqm.evictions"),
	}
}
