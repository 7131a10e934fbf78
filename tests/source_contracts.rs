//! Source contracts rustc and clippy cannot express (DESIGN.md §9), checked
//! on `crates/*/src` with comments and test items removed: seeds are split
//! with `Rng64::fork`, never computed; simulation metadata is flat, never
//! `Vec<Vec<..>>`; serve locks only through the closure-scoped helpers in
//! its `lib.rs`, so no guard is alive across a socket write; no crate reads
//! or writes the process environment, so every run option is passed by
//! value from the command line.

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
    strip(src).lines().enumerate().filter(|(_, l)| l.contains(needle)).map(|(n, _)| n + 1).collect()
}

/// `path:line` for every hit of `check` in the `src/` files of
/// `crates/<name>` (of every crate for `""`), except a file ending in `skip`.
fn scan(name: &str, skip: Option<&str>, check: fn(&str) -> Vec<usize>) -> Vec<String> {
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates").join(name)];
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
                found.extend(check(&src).into_iter().map(|n| format!("{}:{n}", path.display())));
            }
        }
    }
    found
}

#[test]
fn seeds_are_forked_never_computed() {
    assert_eq!(scan("", Some("trace/src/rng.rs"), seed_arithmetic), [""; 0], "use Rng64::fork");
}

#[test]
fn simulation_metadata_is_flat() {
    for name in ["cache", "replacement", "predictors", "core"] {
        assert_eq!(scan(name, None, |s| lines_with(s, "Vec<Vec<")), [""; 0], "use a MetaPlane");
    }
}

#[test]
fn serve_locks_only_through_its_helpers() {
    let raw = |s: &str| [lines_with(s, ".lock()"), lines_with(s, ".wait(")].concat();
    assert_eq!(scan("serve", Some("serve/src/lib.rs"), raw), [""; 0], "use with_lock / wait_then");
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
    assert_eq!(scan("", None, environment_access), [""; 0], "pass the option as a value");
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
    assert_eq!(lines_with(good_flat, "Vec<Vec<"), [0; 0], "both test modules are skipped");
    let bad_env = "let n = std::env::var(\"N\");
std::env::set_var(\"N\", \"1\");
let d = env::var_os(\"D\");
std::env::remove_var(\"N\");";
    assert_eq!(environment_access(bad_env), [1, 2, 3, 4]);
    let good_env = "let args: Vec<String> = std::env::args().collect();
let tmp = std::env::temp_dir(); // not std::env::var(\"TMP\")";
    assert_eq!(environment_access(good_env), [0; 0]);
}
