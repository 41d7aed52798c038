//! The rule engine: lexical rules, each guarding one invariant the
//! fleet's shards and gated counters stand on. Rules receive the
//! comment/string/test-stripped token stream of one file plus its
//! classification, and return findings; suppression (the allowlist) is
//! the engine's job, not the rules'.

use crate::lexer::Tok;

/// How a workspace `.rs` file is used — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some `src/` (the default).
    Lib,
    /// A binary under `src/bin/`.
    Bin,
    /// An example under `examples/`.
    Example,
    /// An integration test under `tests/`.
    Test,
    /// A bench under `benches/`.
    Bench,
}

/// One rule violation at an exact source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`plan-discipline`, ...).
    pub rule: &'static str,
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation, including what to do about it.
    pub msg: String,
}

/// Static description of a rule, for `--list-rules` and docs.
pub struct RuleInfo {
    /// Stable id, used in diagnostics and `lint-allow.toml`.
    pub id: &'static str,
    /// Where it looks.
    pub scope: &'static str,
    /// What it guards.
    pub what: &'static str,
}

/// Every rule this binary knows, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "plan-discipline",
        scope: "lib/bin/example code outside crates/core and tools/",
        what: "raw RunTimeManager::load/defragment calls bypass the plan-reuse \
               pipeline (stale-plan safety); use load_with_plan/defragment_with_plan \
               or the service's admit or reserve",
    },
    RuleInfo {
        id: "epoch-discipline",
        scope: "crates/core/src/manager.rs",
        what: "every arena mutation must advance the epoch via bump_epoch, and \
               nothing else may write self.epoch — stale plans must never execute",
    },
    RuleInfo {
        id: "shard-locality",
        scope: "lib/bin code",
        what: "Cell/RefCell/Rc/static mut/unsafe are Send/locality hazards for \
               shards that move whole between threads; each use needs a written \
               confinement argument",
    },
    RuleInfo {
        id: "determinism",
        scope: "lib/bin/example code",
        what: "HashMap/HashSet iteration order and wall-clock reads must stay out \
               of counter-gated paths — the CI baseline is byte-exact-diffed; \
               wall timing belongs in rtm-obs's profiler module (the one \
               allowlisted Instant site), never in event payloads or reports",
    },
    RuleInfo {
        id: "panic-hygiene",
        scope: "lib code (non-test, non-example)",
        what: "unwrap/expect/panic! in library code must be converted to Result \
               propagation or carry a written unreachability justification",
    },
];

/// Runs every applicable rule over one stripped token stream.
pub fn run_all(rel: &str, kind: FileKind, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    plan_discipline(rel, kind, toks, &mut out);
    epoch_discipline(rel, toks, &mut out);
    shard_locality(rel, kind, toks, &mut out);
    determinism(rel, kind, toks, &mut out);
    panic_hygiene(rel, kind, toks, &mut out);
    out
}

fn finding(rule: &'static str, rel: &str, t: &Tok, msg: String) -> Finding {
    Finding {
        rule,
        file: rel.to_owned(),
        line: t.line,
        col: t.col,
        msg,
    }
}

/// True when `toks[i..]` is `.name(`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
}

/// True when `toks[i..]` is `path :: name(`, for any one-segment prefix.
fn is_path_call(toks: &[Tok], i: usize, seg: &str, name: &str) -> bool {
    toks[i].is_ident(seg)
        && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Rule 1 — the plan-reuse pipeline is the only way to mutate a device
/// from outside `rtm-core`. `load`/`defragment` plan internally on
/// every call; a site that uses them instead of
/// `load_with_plan`/`defragment_with_plan` — or the service's admission
/// (`admit` or `reserve`, each of which seats an epoch-stamped ticket
/// and implements it through `RunTimeManager::execute_reserved` in one
/// step) — silently reverts an admission to triple-planning and
/// sidesteps stale-plan accounting.
/// `execute_reserved` is a *sanctioned* load entry point: it only ever
/// implements a ticket a reservation already planned and stamped.
fn plan_discipline(rel: &str, kind: FileKind, toks: &[Tok], out: &mut Vec<Finding>) {
    if !matches!(kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return;
    }
    if rel.starts_with("crates/core/") || rel.starts_with("tools/") {
        return;
    }
    for i in 0..toks.len() {
        for name in ["load", "defragment"] {
            let hit = if is_method_call(toks, i, name) {
                Some(&toks[i + 1])
            } else if is_path_call(toks, i, "RunTimeManager", name) {
                Some(&toks[i + 3])
            } else {
                None
            };
            if let Some(site) = hit {
                out.push(finding(
                    "plan-discipline",
                    rel,
                    site,
                    format!(
                        "direct `{name}()` call outside rtm-core bypasses the plan-reuse \
                         pipeline; route it through `{name}_with_plan` (or the service's \
                         `admit` or `reserve`), or allowlist with a rationale"
                    ),
                ));
            }
        }
    }
}

/// Arena methods whose call mutates the layout a plan describes.
const ARENA_MUTATORS: &[&str] = &["allocate", "allocate_at", "release", "relocate", "claim"];

/// Rule 2 — inside the manager, arena mutations and epoch advances are
/// inseparable: the epoch is the cache key of every plan, summary and
/// frag sample, so a mutation that skips `bump_epoch` lets a stale plan
/// execute. Conversely, only `bump_epoch` may write the counter.
fn epoch_discipline(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    if !rel.ends_with("crates/core/src/manager.rs") {
        return;
    }
    for (name, body) in split_fns(toks) {
        if name == "bump_epoch" {
            continue;
        }
        let mut missing_reported = false;
        for i in 0..body.len() {
            // `self.epoch +=` / `self.epoch =` (but not `==`, `!=` etc).
            if body[i].is_ident("self")
                && body.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && body.get(i + 2).is_some_and(|t| t.is_ident("epoch"))
            {
                let w = (body.get(i + 3), body.get(i + 4));
                let writes = match w {
                    (Some(a), Some(b)) if a.is_punct('+') && b.is_punct('=') => true,
                    (Some(a), Some(b)) if a.is_punct('=') && !b.is_punct('=') => true,
                    _ => false,
                };
                if writes {
                    out.push(finding(
                        "epoch-discipline",
                        rel,
                        &body[i + 2],
                        format!(
                            "`fn {name}` writes `self.epoch` directly; only `bump_epoch` \
                             may advance the epoch"
                        ),
                    ));
                }
            }
            // `.arena.<mutator>(` without a bump_epoch call in the fn.
            if body[i].is_punct('.')
                && body.get(i + 1).is_some_and(|t| t.is_ident("arena"))
                && body.get(i + 2).is_some_and(|t| t.is_punct('.'))
                && body.get(i + 4).is_some_and(|t| t.is_punct('('))
            {
                if let Some(m) = body.get(i + 3).and_then(|t| t.ident()) {
                    if ARENA_MUTATORS.contains(&m)
                        && !body.iter().any(|t| t.is_ident("bump_epoch"))
                        && !missing_reported
                    {
                        missing_reported = true;
                        out.push(finding(
                            "epoch-discipline",
                            rel,
                            &body[i + 3],
                            format!(
                                "`fn {name}` mutates the arena (`.arena.{m}()`) but never \
                                 calls `bump_epoch`; plans stamped before this call would \
                                 stay valid for a layout that no longer exists"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Rule 3 — the Send-readiness pre-flight. `Cell`/`RefCell` are `Send`
/// but not `Sync` (fine shard-locally, fatal if shared), `Rc` is
/// neither, `static mut` and `unsafe` are manual review forever. Every
/// use must carry a written confinement argument in the allowlist.
/// A `Cell` followed by `(` is a tuple variant or constructor of the
/// workspace's own (`CellSrc::Cell(i)`): the std types have none.
fn shard_locality(rel: &str, kind: FileKind, toks: &[Tok], out: &mut Vec<Finding>) {
    if !matches!(kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if let Some(id) = t.ident() {
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            let msg = match id {
                "Cell" | "RefCell" | "UnsafeCell" if !called => Some(format!(
                    "interior mutability (`{id}`) in shard state: \
                     `Send` but not `Sync`, so it must stay confined to one shard — \
                     allowlist with the confinement argument or use owned state"
                )),
                "Rc" => Some(
                    "`Rc` is neither `Send` nor `Sync` and would break the fleet's \
                     compile-time `Send` pins; use `Arc` or owned state"
                        .to_owned(),
                ),
                "thread_local" => Some(
                    "`thread_local!` state belongs to a thread, not to a shard, and \
                     stays behind when the shard moves to another thread; keep \
                     per-shard state inside the shard"
                        .to_owned(),
                ),
                "unsafe" => Some(
                    "`unsafe` in workspace code is a standing review obligation; \
                     justify in the allowlist or remove"
                        .to_owned(),
                ),
                "static" if toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) => Some(
                    "`static mut` is an unsynchronized global — a data race the moment \
                     shards run in parallel"
                        .to_owned(),
                ),
                _ => None,
            };
            if let Some(msg) = msg {
                out.push(finding("shard-locality", rel, t, msg));
            }
        }
    }
}

/// Rule 4 — the CI perf gate diffs counter output byte-for-byte, so
/// anything that can reorder or time-skew output in library, binary or
/// example code is flagged: `HashMap`/`HashSet` (iteration order varies
/// run to run), `Instant`/`SystemTime` (wall time in gated paths).
/// Benches are exempt — timing is their purpose. The observability
/// split sharpens the wall-clock arm: `rtm-obs` keeps the deterministic
/// event stream (simulated time only) strictly apart from the wall-clock
/// phase profiler, so the *only* legitimate `Instant` home in workspace
/// code is `crates/obs/src/profile.rs` — carried as the one justified
/// determinism allowlist entry, not as a rule exemption.
fn determinism(rel: &str, kind: FileKind, toks: &[Tok], out: &mut Vec<Finding>) {
    if !matches!(kind, FileKind::Lib | FileKind::Bin | FileKind::Example) {
        return;
    }
    for t in toks {
        if let Some(id) = t.ident() {
            let msg = match id {
                "HashMap" | "HashSet" => Some(format!(
                    "`{id}` iteration order is nondeterministic; report counters and \
                     baseline output must not depend on it — use BTreeMap/BTreeSet/Vec, \
                     or allowlist lookup-only uses"
                )),
                "Instant" | "SystemTime" => Some(format!(
                    "wall-clock (`{id}`) near counter-gated paths threatens the \
                     byte-exact CI baseline; route timing through rtm-obs's phase \
                     profiler/Stopwatch (the one allowlisted Instant site) and keep \
                     events and reports on simulated time"
                )),
                _ => None,
            };
            if let Some(msg) = msg {
                out.push(finding("determinism", rel, t, msg));
            }
        }
    }
}

/// Rule 5 — a panic in one shard of a parallel fleet poisons the whole
/// run. Library code must propagate `Result`s; the residue of genuinely
/// unreachable states needs a written justification in the allowlist
/// (the `expect` message alone is not reviewable at a distance).
fn panic_hygiene(rel: &str, kind: FileKind, toks: &[Tok], out: &mut Vec<Finding>) {
    if kind != FileKind::Lib {
        return;
    }
    for i in 0..toks.len() {
        for name in ["unwrap", "expect"] {
            if is_method_call(toks, i, name) {
                out.push(finding(
                    "panic-hygiene",
                    rel,
                    &toks[i + 1],
                    format!(
                        "`.{name}()` in library code; convert to Result/CoreError \
                         propagation or allowlist with the invariant that makes it \
                         unreachable"
                    ),
                ));
            }
        }
        if let Some(id) = toks[i].ident() {
            if matches!(id, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                out.push(finding(
                    "panic-hygiene",
                    rel,
                    &toks[i],
                    format!(
                        "`{id}!` in library code; convert to Result/CoreError propagation \
                         or allowlist with the invariant that makes it unreachable"
                    ),
                ));
            }
        }
    }
}

/// Splits a token stream into `fn` items: (name, body tokens). The body
/// is the balanced `{ ... }` block after the signature. Nested closures
/// stay inside their function's body; nested `fn` items are also
/// yielded separately (their tokens appear in both — acceptable for
/// presence checks).
fn split_fns(toks: &[Tok]) -> Vec<(String, Vec<Tok>)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                // Find the body's opening brace; `;` first means a
                // trait/extern declaration with no body.
                let mut j = i + 2;
                let mut body_start = None;
                while let Some(t) = toks.get(j) {
                    if t.is_punct('{') {
                        body_start = Some(j);
                        break;
                    }
                    if t.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(start) = body_start {
                    let mut depth = 0i32;
                    let mut end = start;
                    for (k, t) in toks.iter().enumerate().skip(start) {
                        if t.is_punct('{') {
                            depth += 1;
                        } else if t.is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                end = k;
                                break;
                            }
                        }
                    }
                    out.push((name.to_owned(), toks[start..=end].to_vec()));
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_cfg_test};

    fn run(rel: &str, kind: FileKind, src: &str) -> Vec<Finding> {
        run_all(rel, kind, &strip_cfg_test(lex(src)))
    }

    #[test]
    fn plan_discipline_flags_raw_load_outside_core() {
        let f = run(
            "crates/service/src/service.rs",
            FileKind::Lib,
            "fn a(m: &mut M) { m.load(d, 8, 8, |_,_,_| {}); }",
        );
        assert_eq!(f.iter().filter(|f| f.rule == "plan-discipline").count(), 1);
    }

    #[test]
    fn plan_discipline_allows_pipeline_calls_and_core() {
        let clean = run(
            "crates/service/src/service.rs",
            FileKind::Lib,
            "fn a(m: &mut M) { m.load_with_plan(d, 8, 8, &p, |_,_,_| {}); }",
        );
        assert!(clean.iter().all(|f| f.rule != "plan-discipline"));
        let core = run(
            "crates/core/src/lib.rs",
            FileKind::Lib,
            "fn a(m: &mut M) { m.load(d, 8, 8, |_,_,_| {}); }",
        );
        assert!(core.iter().all(|f| f.rule != "plan-discipline"));
        // The two-phase pipeline is sanctioned end to end: a seated
        // reservation executing its ticket is not a raw load.
        let two_phase = run(
            "crates/fleet/src/fleet.rs",
            FileKind::Lib,
            "fn a(s: &mut S, r: &mut R) { s.reserve(0, bid, r); s.execute_reserved(r); }",
        );
        assert!(two_phase.iter().all(|f| f.rule != "plan-discipline"));
    }

    #[test]
    fn epoch_discipline_requires_bump_for_arena_mutation() {
        let src = "
            impl M {
                fn bad(&mut self) { self.arena.release(id); }
                fn good(&mut self) { self.arena.release(id); self.bump_epoch(); }
                fn bump_epoch(&mut self) { self.epoch += 1; }
            }";
        let f = run("crates/core/src/manager.rs", FileKind::Lib, src);
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "epoch-discipline").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].msg.contains("fn bad"));
    }

    #[test]
    fn epoch_discipline_flags_direct_epoch_writes() {
        let src = "impl M { fn sneaky(&mut self) { self.epoch += 1; } \
                   fn cmp(&self) -> bool { self.epoch == 3 } }";
        let f = run("crates/core/src/manager.rs", FileKind::Lib, src);
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "epoch-discipline").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].msg.contains("sneaky"));
    }

    #[test]
    fn shard_locality_flags_cells_and_static_mut() {
        let src = "struct S { c: Cell<u32>, r: RefCell<u8>, p: Rc<u8> } \
                   static mut G: u32 = 0; \
                   fn f() { unsafe { G = 1 } }";
        let f = run("crates/x/src/lib.rs", FileKind::Lib, src);
        assert_eq!(f.iter().filter(|f| f.rule == "shard-locality").count(), 5);
    }

    #[test]
    fn shard_locality_skips_variants_named_cell() {
        let variants = "enum E { Cell(usize) } fn f(i: usize) -> E { E::Cell(i) }";
        let f = run("crates/x/src/lib.rs", FileKind::Lib, variants);
        assert!(f.iter().all(|f| f.rule != "shard-locality"), "{f:?}");
        let std_cells = "use std::cell::Cell; \
                         struct S { c: Cell<u32> } \
                         fn f() -> S { S { c: Cell::new(0) } }";
        let f = run("crates/x/src/lib.rs", FileKind::Lib, std_cells);
        assert_eq!(f.iter().filter(|f| f.rule == "shard-locality").count(), 3);
    }

    #[test]
    fn determinism_flags_hash_collections_and_time() {
        let src = "use std::collections::HashMap; \
                   fn f() { let t = Instant::now(); }";
        let f = run("crates/x/src/lib.rs", FileKind::Lib, src);
        assert_eq!(f.iter().filter(|f| f.rule == "determinism").count(), 2);
    }

    #[test]
    fn panic_hygiene_skips_tests_and_examples() {
        let src = "fn f() { x.unwrap(); } \
                   #[cfg(test)] mod tests { fn t() { y.unwrap(); } }";
        let lib = run("crates/x/src/lib.rs", FileKind::Lib, src);
        assert_eq!(lib.iter().filter(|f| f.rule == "panic-hygiene").count(), 1);
        let ex = run("examples/e.rs", FileKind::Example, src);
        assert_eq!(ex.iter().filter(|f| f.rule == "panic-hygiene").count(), 0);
    }
}
