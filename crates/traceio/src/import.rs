//! Import of external text traces (ChampSim-style `pc addr is_write`
//! lines) into the `.sdbt` container.
//!
//! One access per line, whitespace-separated:
//!
//! ```text
//! # comment lines and blank lines are skipped
//! 0x401a60 0x7ffe0040 0
//! 0x401a64 0x7ffe0080 1
//! 4200036  2147549248 R
//! ```
//!
//! Values with a `0x`/`0X` prefix are hexadecimal, otherwise decimal.
//! The write flag accepts `0`/`1` and `R`/`W` (any case). Imported
//! traces are memory-only instruction streams — foreign trace formats
//! carry no non-memory instructions, so MPKI from an imported trace is
//! per-kilo-*access* rather than per-kilo-instruction; the trace header
//! records a zero seed to mark the stream as externally captured.

use crate::error::TraceIoError;
use crate::writer::{TraceWriter, WriteSummary};
use sdbp_trace::{AccessKind, Addr, Instr, MemRef, Pc};
use std::io::{BufRead, Seek, Write};

/// Parses one trace line. `Ok(None)` for blank and `#`-comment lines.
///
/// # Errors
///
/// [`TraceIoError::Import`] describing the defect, tagged with `lineno`.
pub fn parse_line(line: &str, lineno: u64) -> Result<Option<Instr>, TraceIoError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let fail = |detail: String| TraceIoError::Import {
        line: lineno,
        detail,
    };
    let mut fields = line.split_whitespace();
    let mut need = |what: &str| {
        fields
            .next()
            .ok_or_else(|| fail(format!("missing {what} field")))
    };
    let pc = parse_u64(need("pc")?).map_err(|e| fail(format!("pc: {e}")))?;
    let addr = parse_u64(need("addr")?).map_err(|e| fail(format!("addr: {e}")))?;
    let kind = match need("is_write")? {
        "0" | "r" | "R" => AccessKind::Read,
        "1" | "w" | "W" => AccessKind::Write,
        other => return Err(fail(format!("is_write: expected 0/1/R/W, got '{other}'"))),
    };
    if let Some(extra) = fields.next() {
        return Err(fail(format!("unexpected trailing field '{extra}'")));
    }
    Ok(Some(Instr::mem(
        Pc::new(pc),
        MemRef {
            addr: Addr::new(addr),
            kind,
            dependent: false,
        },
    )))
}

fn parse_u64(field: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = field
        .strip_prefix("0x")
        .or_else(|| field.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        field.parse()
    };
    parsed.map_err(|_| format!("'{field}' is not a number"))
}

/// Streams a text trace from `input` into `writer`, line by line — O(line)
/// memory, so arbitrarily large foreign traces import without
/// materializing.
///
/// # Errors
///
/// The first parse failure ([`TraceIoError::Import`]) or any write error.
pub fn import_text<R: BufRead, W: Write + Seek>(
    input: R,
    mut writer: TraceWriter<W>,
) -> Result<WriteSummary, TraceIoError> {
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx as u64 + 1;
        if let Some(instr) = parse_line(&line?, lineno)? {
            writer.write(&instr)?;
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffered::BufferedTrace;
    use crate::format::TraceMeta;
    use std::io::Cursor;

    #[test]
    fn parses_hex_decimal_and_rw_flags() {
        let i = parse_line("0x401a60 0x7ffe0040 0", 1).unwrap().unwrap();
        assert_eq!(i.pc.raw(), 0x401a60);
        let m = i.mem.unwrap();
        assert_eq!(m.addr.raw(), 0x7ffe0040);
        assert_eq!(m.kind, AccessKind::Read);
        assert!(!m.dependent);

        let i = parse_line("4200036 2048 W", 2).unwrap().unwrap();
        assert_eq!(i.pc.raw(), 4_200_036);
        assert_eq!(i.mem.unwrap().kind, AccessKind::Write);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        assert!(parse_line("", 1).unwrap().is_none());
        assert!(parse_line("   ", 2).unwrap().is_none());
        assert!(parse_line("# champsim dump", 3).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (line, needle) in [
            ("0x400", "missing addr"),
            ("0x400 0x800", "missing is_write"),
            ("zzz 0x800 0", "not a number"),
            ("0x400 0x800 2", "is_write"),
            ("0x400 0x800 0 junk", "trailing"),
        ] {
            let err = parse_line(line, 9).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 9") && msg.contains(needle),
                "{line}: {msg}"
            );
        }
    }

    #[test]
    fn import_round_trips_through_the_container() {
        let text = "# two accesses\n0x400 0x1000 0\n\n0x404 0x1040 1\n";
        let mut buf = Cursor::new(Vec::new());
        let writer = TraceWriter::new(&mut buf, TraceMeta::new("imported", 0)).unwrap();
        let summary = import_text(Cursor::new(text), writer).unwrap();
        assert_eq!(summary.instructions, 2);

        let trace = BufferedTrace::from_bytes(buf.into_inner()).unwrap();
        assert_eq!(trace.meta().name, "imported");
        assert_eq!(trace.meta().seed, 0);
        let mut batches = trace.batches();
        let instrs: Vec<Instr> = batches.try_next().unwrap().unwrap().iter().collect();
        assert_eq!(instrs.len(), 2);
        assert_eq!(instrs[1].mem.unwrap().kind, AccessKind::Write);
    }

    #[test]
    fn import_surfaces_parse_errors() {
        let text = "0x400 0x1000 0\nbroken line here\n";
        let writer = TraceWriter::new(Cursor::new(Vec::new()), TraceMeta::new("x", 0)).unwrap();
        let err = import_text(Cursor::new(text), writer).unwrap_err();
        assert!(matches!(err, TraceIoError::Import { line: 2, .. }), "{err}");
    }
}
