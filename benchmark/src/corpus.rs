//! The 20-program scenario corpus as benchmark input: loaded from the
//! checked-in goldens, verified against their manifests, compiled once.

use alive_core::Program;
use alive_corpus::{corpus_dir, first_frame_hash, specs, CorpusSize, Manifest};
use alive_live::LiveSession;
use std::sync::Arc;

/// One corpus program, ready to start sessions from.
pub struct Entry {
    pub name: String,
    pub size: CorpusSize,
    pub source: String,
    pub program: Arc<Program>,
    /// The settled first frame's view.
    pub first_view: String,
    /// Editable literal sites of the source (see [`literal_sites`]).
    pub sites: Vec<Site>,
}

/// Load every corpus program from `crates/corpus/programs` and check its
/// settled first frame against the manifest's golden hash.
pub fn load() -> Result<Vec<Entry>, String> {
    let dir = corpus_dir();
    let mut entries = Vec::new();
    for spec in specs() {
        let name = spec.name();
        let read = |ext: &str| {
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let source = read("alive")?;
        let manifest = Manifest::parse(&read("manifest")?).map_err(|e| format!("{name}: {e}"))?;
        let hash = first_frame_hash(&source).map_err(|e| format!("{name}: {e}"))?;
        if hash != manifest.first_frame_hash {
            return Err(format!(
                "{name}: first frame hash {hash:#018x} != manifest {:#018x}",
                manifest.first_frame_hash
            ));
        }
        let program = Arc::new(alive_core::compile(&source).map_err(|e| format!("{name}: {e}"))?);
        let mut session = LiveSession::with_shared_program(
            &source,
            Arc::clone(&program),
            Default::default(),
            false,
        );
        entries.push(Entry {
            size: spec.size,
            sites: literal_sites(&source),
            first_view: session.live_view(),
            program,
            source,
            name,
        });
    }
    Ok(entries)
}

/// Which kind of literal a [`Site`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    Str,
    Num,
}

/// The byte range of a literal's editable text: the contents of a
/// string literal (between the quotes), or the digits of an integer.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    pub kind: SiteKind,
    pub start: usize,
    pub end: usize,
}

/// Every string literal and integer literal outside comments. Corpus
/// strings contain no escapes, so a literal ends at the next quote.
pub fn literal_sites(source: &str) -> Vec<Site> {
    let bytes = source.as_bytes();
    let mut sites = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'"' {
                    end += 1;
                }
                sites.push(Site {
                    kind: SiteKind::Str,
                    start,
                    end,
                });
                i = end + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let glued = |b: Option<&u8>| {
                    b.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
                };
                // Skip digits inside identifiers and decimal fractions.
                if !glued(start.checked_sub(1).and_then(|p| bytes.get(p))) && !glued(bytes.get(i)) {
                    sites.push(Site {
                        kind: SiteKind::Num,
                        start,
                        end: i,
                    });
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_strings_and_integers_outside_comments() {
        let src =
            "// 12 \"no\"\nglobal a1 : number = 42\nfun f() { post \"x — y\" ++ 0 .. 3; 1.5 }";
        let sites = literal_sites(src);
        let texts: Vec<(SiteKind, &str)> = sites
            .iter()
            .map(|s| (s.kind, &src[s.start..s.end]))
            .collect();
        assert_eq!(
            texts,
            vec![
                (SiteKind::Num, "42"),
                (SiteKind::Str, "x — y"),
                (SiteKind::Num, "0"),
                (SiteKind::Num, "3"),
            ]
        );
    }
}
