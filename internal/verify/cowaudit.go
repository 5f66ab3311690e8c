package verify

// checkCOWAliasing audits the frame storage of the machine's physical
// memory: across the whole fork family (the machine and the zygotes it was
// forked from), no frame storage backs two physical addresses, and no two
// relatives hold one storage. A violation means one write could become
// visible at a second physical address or in a second machine — and
// therefore inside a second isolation domain — without any stage-1/stage-2
// translation connecting them, a channel no page-table audit can see.
// Findings carry the exact PA in both the VA and PA fields (the audit is an
// address-space-independent, machine-wide property; Domain -1 marks it
// process-unscoped).
func checkCOWAliasing(s *Snapshot) []Finding {
	var out []Finding
	for _, issue := range s.M.PM.AuditCOW() {
		out = append(out, Finding{
			Checker: "cow-aliasing",
			PID:     -1,
			Domain:  -1,
			VA:      uint64(issue.PA),
			PA:      uint64(issue.PA),
			Detail:  issue.Detail,
		})
	}
	return out
}
