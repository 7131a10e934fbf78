//! `wire-exhaustive`: every wire enum variant is encodable, decodable,
//! and handled.
//!
//! The serve protocol (PR 6) keeps three enums in
//! `crates/serve/src/protocol.rs` — `Frame`, `ErrorCode`, `TraceRef` —
//! whose variants each live in *three* places: an encode arm, a decode
//! arm, and at least one handler in the serve/harness session code.
//! Rust's `match` exhaustiveness covers a single `match`; it cannot see
//! that `decode`'s match is over *byte tags*, so a new variant added to
//! the enum and to `encode` but not to `decode` compiles cleanly and
//! produces frames the peer rejects as `Protocol` errors at runtime.
//!
//! The graph makes the triple contract checkable: for each variant of a
//! contract enum, there must be a `Enum::Variant` (or `Self::Variant`)
//! reference inside the enum's encode function, one inside its decode
//! function, and one anywhere in the serve/harness sources outside
//! `protocol.rs`. Each missing leg is one finding, anchored at the
//! variant's declaration.

use super::{finding_at_site, Finding, GraphRule};
use crate::graph::Graph;

/// The wire contract lives here.
const PROTOCOL: &str = "crates/serve/src/protocol.rs";

/// Contract enums with their (encode fn, decode fn) pairs. `TraceRef`
/// is a payload of `Frame::SubmitJob`, so its codec arms live inside
/// `Frame`'s `encode`/`decode`.
const CONTRACTS: &[(&str, &str, &str)] = &[
    ("Frame", "encode", "decode"),
    ("ErrorCode", "to_byte", "from_byte"),
    ("TraceRef", "encode", "decode"),
];

/// Where handlers may live: any serve or harness source except the
/// protocol definition itself.
const HANDLER_PREFIXES: &[&str] = &["crates/serve/src/", "crates/harness/src/"];

/// See the [module docs](self).
#[derive(Debug)]
pub struct WireExhaustive;

impl GraphRule for WireExhaustive {
    fn id(&self) -> &'static str {
        "wire-exhaustive"
    }

    fn summary(&self) -> &'static str {
        "wire enum variant missing an encode arm, decode arm, or session handler"
    }

    fn check(&self, graph: &Graph, out: &mut Vec<Finding>) {
        let Some(proto) = graph.file(PROTOCOL) else { return };
        for &(enum_name, enc_fn, dec_fn) in CONTRACTS {
            let Some(e) = proto.facts.enums.iter().find(|e| e.name == enum_name) else {
                continue;
            };
            for v in &e.variants {
                let qualified = format!("{enum_name}::{}", v.name);
                let selfed = format!("Self::{}", v.name);
                let in_fn = |f: &str| {
                    graph.references(PROTOCOL, &qualified, Some(f))
                        || graph.references(PROTOCOL, &selfed, Some(f))
                };
                let mut missing = Vec::new();
                if !in_fn(enc_fn) {
                    missing.push(format!("encode arm in `{enc_fn}`"));
                }
                if !in_fn(dec_fn) {
                    missing.push(format!("decode arm in `{dec_fn}`"));
                }
                let handled = HANDLER_PREFIXES
                    .iter()
                    .any(|p| graph.referenced_under(p, &qualified, PROTOCOL));
                if !handled {
                    missing.push("handler outside protocol.rs".to_owned());
                }
                for leg in missing {
                    out.push(finding_at_site(
                        self.id(),
                        PROTOCOL,
                        &v.site,
                        format!(
                            "wire variant `{qualified}` has no {leg} — a peer can name \
                             this variant that this side cannot round-trip or act on"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{extract, GraphFile};
    use crate::source::SourceFile;

    fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
        let graph = Graph::build(
            files
                .iter()
                .map(|(p, s)| GraphFile {
                    path: (*p).to_owned(),
                    facts: extract(&SourceFile::from_source(p, (*s).to_owned())),
                })
                .collect(),
        );
        let mut out = Vec::new();
        WireExhaustive.check(&graph, &mut out);
        out
    }

    /// A minimal complete protocol: both variants encoded, decoded, and
    /// handled.
    const COMPLETE_PROTO: &str = "pub enum Frame { Ping, Pong }\n\
         impl Frame {\n\
             pub fn encode(&self) { match self { Frame::Ping => {} Frame::Pong => {} } }\n\
             pub fn decode(b: u8) { match b { 0 => Frame::Ping, _ => Frame::Pong }; }\n\
         }\n";
    const HANDLER: &str =
        "fn handle(f: Frame) { match f { Frame::Ping => {} Frame::Pong => {} } }\n";

    #[test]
    fn complete_contract_is_clean() {
        let found = scan(&[
            ("crates/serve/src/protocol.rs", COMPLETE_PROTO),
            ("crates/serve/src/session.rs", HANDLER),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn missing_decode_arm_is_one_finding_at_the_variant() {
        let proto = "pub enum Frame { Ping, Pong }\n\
             impl Frame {\n\
                 pub fn encode(&self) { match self { Frame::Ping => {} Frame::Pong => {} } }\n\
                 pub fn decode(b: u8) { match b { _ => Frame::Ping }; }\n\
             }\n";
        let found = scan(&[
            ("crates/serve/src/protocol.rs", proto),
            ("crates/serve/src/session.rs", HANDLER),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("`Frame::Pong` has no decode arm"), "{}", found[0].message);
        assert_eq!(found[0].line, 1, "anchored at the variant declaration");
        assert!(found[0].snippet.contains("enum Frame"), "{}", found[0].snippet);
    }

    #[test]
    fn unhandled_variant_is_flagged_even_when_codec_is_complete() {
        let found = scan(&[
            ("crates/serve/src/protocol.rs", COMPLETE_PROTO),
            ("crates/serve/src/session.rs", "fn handle(f: Frame) { match f { Frame::Ping => {} _ => {} } }\n"),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("`Frame::Pong` has no handler outside protocol.rs"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn self_qualified_codec_arms_count() {
        let proto = "pub enum ErrorCode { Bad }\n\
             impl ErrorCode {\n\
                 pub fn to_byte(self) { match self { Self::Bad => 0 }; }\n\
                 pub fn from_byte(b: u8) { match b { _ => Self::Bad }; }\n\
             }\n";
        let found = scan(&[
            ("crates/serve/src/protocol.rs", proto),
            ("crates/serve/src/session.rs", "fn f() { reply(ErrorCode::Bad); }\n"),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn workspaces_without_the_protocol_file_are_out_of_scope() {
        let found = scan(&[("crates/core/src/lib.rs", "pub enum Frame { Ping }\n")]);
        assert!(found.is_empty(), "{found:?}");
    }
}
