package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatValue renders a float in Prometheus text form ("+Inf", "-Inf" and
// "NaN" are legal sample values in the exposition format).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelValueEscaper implements the exposition-format escaping rules for
// label values: backslash, double-quote and newline. Go's %q is NOT
// equivalent — it escapes arbitrary non-printing bytes in forms Prometheus
// parsers reject.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabelValue renders a label value for the text exposition format.
func escapeLabelValue(v string) string { return labelValueEscaper.Replace(v) }

// formatLabels renders `{k="v",...}` for the sample's constant labels plus
// an optional extra pair (the histogram "le" bound), or "" when both are
// empty.
func formatLabels(labels []LabelPair, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabelValue(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments followed by samples,
// with histograms expanded into cumulative _bucket{le="..."} series plus
// _sum and _count. Series sharing a name (labeled variants) are grouped
// under one HELP/TYPE header; label values are escaped per the format's
// backslash/quote/newline rules.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prevName := ""
	for _, s := range r.Snapshot() {
		if s.Name != prevName {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			prevName = s.Name
		}
		switch s.Kind {
		case "histogram":
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, formatLabels(s.Labels, "le", formatValue(b.UpperBound)), b.Count); err != nil {
					return err
				}
			}
			ls := formatLabels(s.Labels, "", "")
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", s.Name, ls, formatValue(s.Sum), s.Name, ls, s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, formatLabels(s.Labels, "", ""), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
