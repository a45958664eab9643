//! Rule registry: the single table every rule id, rationale, example, and
//! waiver form lives in.
//!
//! `oasis-check --explain <rule>` and `--list-rules` print from here; a
//! unit test keeps it in step with [`crate::RULES`].

/// Everything `--explain` knows about one rule.
pub struct RuleInfo {
    /// Rule id as used in findings and waiver comments.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists — the invariant it protects.
    pub rationale: &'static str,
    /// A minimal example violation.
    pub example: &'static str,
    /// How to waive it when the exception is deliberate.
    pub waiver: &'static str,
}

/// The full rule table, in display order.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        id: "metric-name",
        summary: "metric name literals live only in their crate's metrics.rs",
        rationale: "Snapshot readers and figure generators join on metric names; a \
                    typo in a stray literal silently produces zeros. Names are \
                    registered once as consts and referenced everywhere else.",
        example: "snap.counter(\"core.net_fe_tx_packets\", 0)  // outside metrics.rs",
        waiver: "// oasis-check: allow(metric-name) <reason>",
    },
    RuleInfo {
        id: "unchecked-epoch-arithmetic",
        summary: "+/* on epoch/timestamp/byte-integral u64/u128 in allocator and \
                  trace paths must be checked_/saturating_ (or waived)",
        rationale: "Epoch nanoseconds, byte-second integrals, and ppb counters are \
                    accumulated over billion-scale traces; a wrapping add corrupts \
                    a figure without crashing. In policed paths (core allocator, \
                    trace stranding integrals) plain `+`/`*` on such operands is a \
                    finding unless the expression already uses checked_add, \
                    saturating_add/mul, or wrapping_* deliberately.",
        example: "self.nic_acc += nic as u128 * dt;",
        waiver: "// oasis-check: allow(unchecked-epoch-arithmetic) <bound argument>",
    },
    RuleInfo {
        id: "cfg-pairing",
        summary: "every private #[cfg(feature = \"obs\")] fn has its \
                  #[cfg(not(..))] inline stub, and vice versa",
        rationale: "The optional `obs` feature compiles out by pairing each gated \
                    fn with an empty #[inline(always)] stub so call sites never \
                    sprout their own cfg forests. A gated fn without its stub breaks the \
                    no-feature build; an orphaned stub is dead code that hides a \
                    deleted implementation. Pub gated fns are exempt — they are \
                    caller-gated by convention.",
        example: "#[cfg(feature = \"obs\")]\nfn note_dispatch(&mut self) { .. } \
                  // no #[cfg(not(feature = \"obs\"))] stub",
        waiver: "// oasis-check: allow(cfg-pairing) <why single-sided is correct>",
    },
    RuleInfo {
        id: "waiver",
        summary: "a waiver names a rule above, gives a reason, and still suppresses \
                  a finding",
        rationale: "Waivers are precise suppressions, not decoration. A waiver \
                    without a reason hides the decision; one whose code was fixed \
                    or deleted silently licenses the next regression at that site. \
                    Rules clippy enforces are excepted with #[expect(lint, reason = \
                    \"..\")] instead, which the compiler checks the same way.",
        example: "// oasis-check: allow(metric-name) boot-time label\n\
                  let y = 1;  // no metric name here",
        waiver: "not waivable — fix or delete the waiver instead",
    },
];

/// Look up a rule by id.
pub fn find(id: &str) -> Option<&'static RuleInfo> {
    REGISTRY.iter().find(|r| r.id == id)
}

/// Render one rule's explanation for `--explain`.
pub fn explain(r: &RuleInfo) -> String {
    fn wrap(s: &str) -> String {
        // Collapse the literal-continuation whitespace runs in the table.
        s.split_whitespace().collect::<Vec<_>>().join(" ")
    }
    format!(
        "{id}: {summary}\n\nWhy:\n  {why}\n\nExample violation:\n  {ex}\n\nWaiver:\n  {wv}\n",
        id = r.id,
        summary = wrap(r.summary),
        why = wrap(r.rationale),
        ex = r.example,
        wv = wrap(r.waiver),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_rules_const() {
        let ids: Vec<&str> = REGISTRY.iter().map(|r| r.id).collect();
        assert_eq!(ids, crate::RULES, "RULES and REGISTRY must stay in sync");
    }

    #[test]
    fn explain_renders_every_rule() {
        for r in REGISTRY {
            let text = explain(r);
            assert!(text.contains(r.id));
            assert!(text.contains("Why:"));
        }
        assert!(find("cfg-pairing").is_some());
        assert!(find("nope").is_none());
    }
}
