//! Source contracts rustc and clippy cannot express (DESIGN.md §9), checked
//! on `crates/*/src` with comments and test items removed: seeds are split
//! with `Rng64::fork`, never computed; simulation metadata is flat, never
//! `Vec<Vec<..>>`; serve locks only through the closure-scoped helpers in
//! its `lib.rs`, so no guard is alive across a socket write; no crate reads
//! or writes the process environment, so every run option is passed by
//! value from the command line; the harness replays only through the
//! replay front door, except Figure 1's efficiency maps.

/// `src` with every `//` comment and every `#[cfg(test)]` item
/// (brace-matched, wherever it sits) blanked out; line numbers still hold.
fn strip(src: &str) -> String {
    let code = src.lines().map(|l| l.split("//").next().unwrap_or(""));
    let mut out = code.collect::<Vec<_>>().join("\n");
    let mut from = 0;
    while let Some(at) = out[from..].find("#[cfg(test)]").map(|i| i + from) {
        let mut depth = 0usize;
        let item_end = |c| {
            depth = match c {
                '{' => depth + 1,
                '}' | ';' => depth.saturating_sub(usize::from(c == '}')),
                _ => return false,
            };
            depth == 0
        };
        let len = out[at..].find(item_end).map_or(out.len() - at, |i| i + 1);
        let blank = out[at..at + len].replace(|c| c != '\n', " ");
        out.replace_range(at..at + len, &blank);
        from = at + blank.len();
    }
    out
}

/// 1-based lines with `+ - * ^ %` or `.wrapping_*` on a `*seed*` identifier.
fn seed_arithmetic(src: &str) -> Vec<usize> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut hits = Vec::new();
    for (n, line) in strip(src).lines().enumerate() {
        let mut rest = line;
        while let Some(start) = rest.find(is_ident) {
            let (before, tail) = rest.split_at(start);
            let (ident, after) = tail.split_at(tail.find(|c| !is_ident(c)).unwrap_or(tail.len()));
            let next = after.trim_start();
            if ident.to_ascii_lowercase().contains("seed")
                && (next.starts_with(['+', '-', '*', '^', '%']) && !next.starts_with("->")
                    || before.trim_end().ends_with(['+', '^', '%'])
                    || after.starts_with(".wrapping_"))
            {
                hits.push(n + 1);
            }
            rest = after;
        }
    }
    hits
}

/// 1-based lines holding `needle` outside comments and test items.
fn lines_with(src: &str, needle: &str) -> Vec<usize> {
    strip(src)
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(needle))
        .map(|(n, _)| n + 1)
        .collect()
}

/// `path:line` for every hit of `check` in the `src/` files of
/// `crates/<name>` (of every crate for `""`), except a file ending in `skip`.
fn scan(name: &str, skip: Option<&str>, check: fn(&str) -> Vec<usize>) -> Vec<String> {
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(name)];
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.components().any(|c| c.as_os_str() == "src")
                && !skip.is_some_and(|f| path.ends_with(f))
            {
                let src = std::fs::read_to_string(&path).expect("utf-8 source");
                found.extend(
                    check(&src)
                        .into_iter()
                        .map(|n| format!("{}:{n}", path.display())),
                );
            }
        }
    }
    found
}

#[test]
fn seeds_are_forked_never_computed() {
    assert_eq!(
        scan("", Some("trace/src/rng.rs"), seed_arithmetic),
        [""; 0],
        "use Rng64::fork"
    );
}

#[test]
fn simulation_metadata_is_flat() {
    for name in ["cache", "replacement", "predictors", "core"] {
        assert_eq!(
            scan(name, None, |s| lines_with(s, "Vec<Vec<")),
            [""; 0],
            "use a MetaPlane"
        );
    }
}

#[test]
fn serve_locks_only_through_its_helpers() {
    let raw = |s: &str| [lines_with(s, ".lock()"), lines_with(s, ".wait(")].concat();
    assert_eq!(
        scan("serve", Some("serve/src/lib.rs"), raw),
        [""; 0],
        "use with_lock / wait_then"
    );
}

/// 1-based lines that read or write an environment variable.
fn environment_access(src: &str) -> Vec<usize> {
    let calls = ["env::var", "var_os(", "set_var(", "remove_var("].map(|n| lines_with(src, n));
    let mut lines = calls.concat();
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn run_options_never_travel_through_the_environment() {
    assert_eq!(
        scan("", None, environment_access),
        [""; 0],
        "pass the option as a value"
    );
}

/// Every path a `use` tree such as `a::{b, c::{d, e as f}}` imports.
fn use_paths(prefix: &str, tree: &str) -> Vec<String> {
    let tree = tree.trim();
    if let Some(inner) = tree.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
        let (mut depth, mut start, mut paths) = (0i32, 0, Vec::new());
        for (i, c) in inner.char_indices().chain([(inner.len(), ',')]) {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    paths.extend(
                        use_paths(prefix, &inner[start..i])
                            .into_iter()
                            .filter(|p| p != prefix),
                    );
                    start = i + 1;
                }
                _ => {}
            }
        }
        return paths;
    }
    match tree.split_once("::{") {
        Some((head, rest)) => use_paths(&format!("{prefix}{head}::"), &format!("{{{rest}")),
        None => vec![format!(
            "{prefix}{}",
            tree.split(" as ").next().unwrap_or(tree).trim()
        )],
    }
}

/// 1-based lines that import or call the serial replay loop
/// (`sdbp_cache::replay::replay`, also re-exported as `sdbp_cache::replay`)
/// or build a `Cache` by hand with `Cache::new(`.
fn hand_built_replay(src: &str) -> Vec<usize> {
    let code = strip(src);
    let line_of = |at: usize| code[..at].matches('\n').count() + 1;
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut lines = Vec::new();
    for needle in [
        "sdbp_cache::replay::replay",
        "sdbp_cache::replay(",
        "Cache::new(",
    ] {
        for (at, _) in code.match_indices(needle) {
            let before = code[..at].chars().next_back().is_some_and(is_ident);
            let after = needle.ends_with(is_ident)
                && code[at + needle.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident);
            if !before && !after {
                lines.push(line_of(at));
            }
        }
    }
    for (at, _) in code.match_indices("use ") {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let tree = code[at + 4..].split(';').next().unwrap_or("");
        let serial = ["sdbp_cache::replay::replay", "sdbp_cache::replay"];
        if use_paths("", tree)
            .iter()
            .any(|p| serial.contains(&p.as_str()))
        {
            lines.push(line_of(at));
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[test]
fn the_harness_replays_through_the_front_door() {
    let found = scan("harness", None, hand_built_replay);
    assert_eq!(found, [""; 0], "replay through sdbp::replay::ReplayRequest");
}

#[test]
fn checks_flag_bad_shapes_and_pass_good_ones() {
    let bad_seed = "fn a(seed: u64, core: u64) -> u64 { seed + core }
fn b(seed: u64, id: u64) -> u64 { id ^ seed }
fn c(base_seed: u64) -> u64 { base_seed.wrapping_mul(0x9e37_79b9) }";
    assert_eq!(seed_arithmetic(bad_seed), [1, 2, 3]);
    let good_seed = "// seed-discipline: fork, never compute
fn f(seed: u64, core: u64) -> Rng64 { Rng64::new(seed).fork(core) }
fn g(seed: u64) -> [u8; 8] { seed.to_le_bytes() }";
    assert_eq!(seed_arithmetic(good_seed), [0; 0]);
    let bad_flat = "pub struct P { pub lru: Vec<Vec<u8>>, pub x: u8 }
pub struct Q { pub sig: Vec<Vec<u16>> }
pub fn build(s: usize, w: usize) -> Vec<Vec<bool>> { vec![vec![false; w]; s] }";
    assert_eq!(lines_with(bad_flat, "Vec<Vec<"), [1, 2, 3]);
    let good_flat = "pub struct P { pub lru: MetaPlane<u8> }
#[cfg(test)]
mod tests { struct E { rows: Vec<Vec<u8>> } }
pub fn between() {}
#[cfg(test)]
mod more { fn f() -> Vec<Vec<u8>> { vec![] } }";
    assert_eq!(
        lines_with(good_flat, "Vec<Vec<"),
        [0; 0],
        "both test modules are skipped"
    );
    let bad_env = "let n = std::env::var(\"N\");
std::env::set_var(\"N\", \"1\");
let d = env::var_os(\"D\");
std::env::remove_var(\"N\");";
    assert_eq!(environment_access(bad_env), [1, 2, 3, 4]);
    let good_env = "let args: Vec<String> = std::env::args().collect();
let tmp = std::env::temp_dir(); // not std::env::var(\"TMP\")";
    assert_eq!(environment_access(good_env), [0; 0]);
    let bad_replay = "use sdbp_cache::replay::replay;
use sdbp_cache::replay::{split_hits_by_core, replay as serial};
use sdbp_cache::{
    replay::{replay, Span},
    CacheConfig,
};
let r = sdbp_cache::replay::replay(&w.llc, &mut cache);
let mut cache = sdbp_cache::Cache::new(llc);
let r = sdbp_cache::replay(&s, &mut sdbp_cache::Cache::with_policy(cfg, p));
let r = replay_spans(&s, &spans, &mut Cache::new(cfg), None);";
    assert_eq!(hand_built_replay(bad_replay), [1, 2, 3, 7, 8, 9, 10]);
    let good_replay = "use sdbp_cache::replay::{replay_spans, split_hits_by_core};
use sdbp_cache::{CacheConfig, CacheStats};
let h = sdbp_cache::replay::split_hits_by_core(&m, &o.hits, 4);
let v = VirtualVictimCache::new(llc); // not Cache::new(llc)
let c = CacheConfig::new(64, 8);";
    assert_eq!(hand_built_replay(good_replay), [0; 0]);
}
