//! Minimal FASTA reading and writing.
//!
//! Supports the subset of FASTA the off-target pipeline needs: `>`-prefixed
//! headers (the first whitespace-delimited token is the contig name), and
//! sequence lines over `ACGTacgt`. Ambiguous bases (`N` runs common in real
//! assemblies) are *skipped* by [`read_genome_lossy`] — the same
//! preprocessing Cas-OFFinder applies — or rejected by the strict
//! [`read_genome`].
//!
//! All three readers share one parser that makes a single pass over the
//! input bytes: lines are found with a byte search, trailing ASCII
//! whitespace is trimmed, and each sequence line is mapped through a
//! 256-entry code table whose OR-ed result flags a bad byte once per
//! line. Only a line holding such a byte takes a per-byte path that drops
//! it and records the first one, so one pass serves both the strict and
//! the lossy callers.

use crate::{Base, DnaSeq, Genome, GenomeError};
use std::io::{Read, Write};

/// Reads a genome from FASTA, rejecting any non-`ACGT` sequence byte.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`] if sequence data precedes the first
/// header or a header is not UTF-8; [`GenomeError::DuplicateContig`] if
/// two headers name the same contig; [`GenomeError::InvalidBase`] on the
/// first invalid byte; [`GenomeError::Io`] on read failure.
pub fn read_genome<R: Read>(reader: R) -> Result<Genome, GenomeError> {
    let Parsed { genome, first_invalid } = parse(&read_all(reader)?, true)?;
    match first_invalid {
        None => Ok(genome),
        Some((byte, offset)) => Err(GenomeError::InvalidBase { byte, offset }),
    }
}

/// Reads a genome from FASTA, silently dropping bytes that are not
/// `ACGTacgt` (ambiguity codes, gaps, non-ASCII bytes). This mirrors how
/// the published tools preprocess reference assemblies.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`], [`GenomeError::DuplicateContig`] or
/// [`GenomeError::Io`] as for [`read_genome`].
pub fn read_genome_lossy<R: Read>(reader: R) -> Result<Genome, GenomeError> {
    Ok(parse(&read_all(reader)?, false)?.genome)
}

/// Reads a genome from an in-memory FASTA image, degrading gracefully:
/// invalid sequence bytes are dropped (as the published tools do) with a
/// warning on stderr naming the first one, in the same single pass that
/// a clean file takes.
///
/// Returns the genome plus whether any byte was dropped, so callers can
/// count the degradation. Structural failures (malformed records,
/// duplicate contig names, injected I/O faults) are not recoverable by
/// dropping bytes and still error.
///
/// # Errors
///
/// [`GenomeError::MalformedFasta`], [`GenomeError::DuplicateContig`], or
/// [`GenomeError::Io`] — everything except `InvalidBase`, which degrades
/// instead.
pub fn read_genome_resilient(bytes: &[u8]) -> Result<(Genome, bool), GenomeError> {
    let Parsed { genome, first_invalid } = parse(bytes, false)?;
    if let Some((byte, offset)) = first_invalid {
        crispr_trace::instant_dyn("degrade:fasta.read");
        eprintln!(
            "warning: strict FASTA parse failed (invalid DNA base {:?} at offset {}); \
             re-reading lossily",
            byte as char, offset
        );
    }
    Ok((genome, first_invalid.is_some()))
}

fn read_all<R: Read>(mut reader: R) -> Result<Vec<u8>, GenomeError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// A parsed genome and the first sequence byte that was not a base, with
/// its offset in the input.
struct Parsed {
    genome: Genome,
    first_invalid: Option<(u8, usize)>,
}

/// Code-table entry of every byte that is not `ACGTacgt`; the bases map
/// to their 2-bit codes.
const INVALID: u8 = 0x80;

const CODES: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut code = 0;
    while code < 4 {
        table[b"ACGT"[code] as usize] = code as u8;
        table[b"acgt"[code] as usize] = code as u8;
        code += 1;
    }
    table
};

/// Parses a FASTA image in one pass. With `strict`, the first invalid
/// sequence byte ends the parse (it is reported in `first_invalid`, as in
/// the lossy case, and the genome is incomplete); otherwise invalid bytes
/// are dropped and the parse runs on. Structural errors end it either way.
fn parse(bytes: &[u8], strict: bool) -> Result<Parsed, GenomeError> {
    let _span = crispr_trace::span("fasta:read");
    // Failpoint at the parse boundary: lets the robustness suite model a
    // reference assembly that cannot be read.
    crispr_failpoint::hit_io("fasta.read")?;
    let mut genome = Genome::new();
    let mut first_invalid = None;
    let mut pos = 0;
    while pos < bytes.len() {
        let end = line_end(bytes, pos);
        let line = trim_end(&bytes[pos..end]);
        let Some(header) = line.strip_prefix(b">") else {
            if !line.is_empty() {
                return Err(GenomeError::MalformedFasta {
                    line: line_number(bytes, pos),
                    reason: "sequence data before first '>' header",
                });
            }
            pos = end + 1;
            continue;
        };
        let name = std::str::from_utf8(header)
            .map_err(|_| GenomeError::MalformedFasta {
                line: line_number(bytes, pos),
                reason: "header is not valid UTF-8",
            })?
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string();
        let body = (end + 1).min(bytes.len());
        pos = next_header(bytes, body);
        let mut bases = Vec::with_capacity(pos - body);
        parse_body(bytes, body..pos, &mut bases, &mut first_invalid, strict);
        if strict && first_invalid.is_some() {
            break;
        }
        genome.add_contig(name, DnaSeq::from_bases(bases))?;
    }
    Ok(Parsed { genome, first_invalid })
}

/// Appends the bases of the sequence lines in `bytes[span]` to `bases`.
fn parse_body(
    bytes: &[u8],
    span: std::ops::Range<usize>,
    bases: &mut Vec<Base>,
    first_invalid: &mut Option<(u8, usize)>,
    strict: bool,
) {
    let mut pos = span.start;
    while pos < span.end {
        let end = line_end(&bytes[..span.end], pos);
        let line = trim_end(&bytes[pos..end]);
        let start = bases.len();
        let mut seen = 0;
        bases.extend(line.iter().map(|&byte| {
            let code = CODES[usize::from(byte)];
            seen |= code;
            Base::from_code(code)
        }));
        if seen & INVALID != 0 {
            bases.truncate(start);
            for (i, &byte) in line.iter().enumerate() {
                match CODES[usize::from(byte)] {
                    INVALID => {
                        first_invalid.get_or_insert((byte, pos + i));
                        if strict {
                            return;
                        }
                    }
                    code => bases.push(Base::from_code(code)),
                }
            }
        }
        pos = end + 1;
    }
}

/// Index of the `\n` ending the line that starts at `pos`, or the input
/// length for an unterminated last line.
fn line_end(bytes: &[u8], pos: usize) -> usize {
    find_byte(&bytes[pos..], b'\n').map_or(bytes.len(), |i| pos + i)
}

/// Index of the first `needle` in `hay`, eight bytes per step: a zero
/// byte of `word ^ splat` is a match, and the lowest flagged byte of the
/// has-zero-byte test is always a true zero.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = LO * u64::from(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ splat;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(base + (zero.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks.remainder().iter().position(|&b| b == needle).map(|i| base + i)
}

/// Start of the first header line at or after `pos` (itself a line start),
/// or the input length.
fn next_header(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(i) = find_byte(&bytes[pos..], b'>') {
        let at = pos + i;
        if at == 0 || bytes[at - 1] == b'\n' {
            return at;
        }
        pos = at + 1;
    }
    bytes.len()
}

/// `line` without trailing ASCII whitespace (the vertical tab included,
/// as `str::trim_end` does).
fn trim_end(line: &[u8]) -> &[u8] {
    let keep = line.iter().rposition(|&b| !(b.is_ascii_whitespace() || b == 0x0b));
    &line[..keep.map_or(0, |i| i + 1)]
}

/// 1-based number of the line starting at `pos`; only error paths count.
fn line_number(bytes: &[u8], pos: usize) -> usize {
    bytes[..pos].iter().filter(|&&b| b == b'\n').count() + 1
}

/// Writes a genome as FASTA with `width`-column sequence lines.
///
/// # Errors
///
/// Propagates any I/O failure from `writer`.
pub fn write_genome<W: Write>(
    mut writer: W,
    genome: &Genome,
    width: usize,
) -> Result<(), GenomeError> {
    let width = width.max(1);
    let mut line = Vec::with_capacity(width + 1);
    for contig in genome.contigs() {
        writeln!(writer, ">{}", contig.name())?;
        for chunk in contig.seq().as_slice().chunks(width) {
            line.clear();
            line.extend(chunk.iter().map(|b| b.to_ascii()));
            line.push(b'\n');
            writer.write_all(&line)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The line-by-line parser this module shipped before the one-pass
    /// parser, kept verbatim as the differential reference. Its
    /// `InvalidBase` offsets count sequence bytes only, summed across
    /// contigs ([`input_offset`] maps them to input offsets).
    mod reference {
        use crate::{Base, DnaSeq, Genome, GenomeError};
        use std::io::{BufRead, BufReader, Read};

        pub fn read_impl<R: Read>(reader: R, lossy: bool) -> Result<Genome, GenomeError> {
            let _span = crispr_trace::span("fasta:read");
            // Failpoint at the parse boundary: lets the robustness suite model a
            // reference assembly that cannot be read.
            crispr_failpoint::hit_io("fasta.read")?;
            let reader = BufReader::new(reader);
            let mut genome = Genome::new();
            let mut name: Option<String> = None;
            let mut seq = DnaSeq::new();
            let mut offset = 0usize;

            for (line_no, line) in reader.lines().enumerate() {
                let line = line?;
                let line = line.trim_end();
                if line.is_empty() {
                    continue;
                }
                if let Some(header) = line.strip_prefix('>') {
                    if let Some(prev) = name.take() {
                        genome.add_contig(prev, std::mem::take(&mut seq))?;
                    }
                    let token = header.split_whitespace().next().unwrap_or("");
                    name = Some(token.to_string());
                } else {
                    if name.is_none() {
                        return Err(GenomeError::MalformedFasta {
                            line: line_no + 1,
                            reason: "sequence data before first '>' header",
                        });
                    }
                    for byte in line.bytes() {
                        match Base::from_ascii(byte) {
                            Some(b) => seq.push(b),
                            None if lossy => {}
                            None => return Err(GenomeError::InvalidBase { byte, offset }),
                        }
                        offset += 1;
                    }
                }
            }
            if let Some(prev) = name {
                genome.add_contig(prev, seq)?;
            }
            Ok(genome)
        }
    }

    /// Input offset of the `n`-th sequence byte of an ASCII FASTA image:
    /// the reference parser's `InvalidBase.offset` in today's meaning.
    fn input_offset(bytes: &[u8], n: usize) -> usize {
        let (mut seen, mut start) = (0, 0);
        for raw in bytes.split(|&b| b == b'\n') {
            let line = std::str::from_utf8(raw).expect("ASCII input").trim_end();
            if !line.is_empty() && !line.starts_with('>') {
                if n < seen + line.len() {
                    return start + (n - seen);
                }
                seen += line.len();
            }
            start += raw.len() + 1;
        }
        panic!("sequence byte {n} is past the input");
    }

    /// A parse outcome with errors rendered for comparison, the
    /// `InvalidBase` offset passed through `offset`.
    fn outcome<T>(
        result: Result<T, GenomeError>,
        offset: impl Fn(usize) -> usize,
    ) -> Result<T, String> {
        result.map_err(|e| match e {
            GenomeError::InvalidBase { byte, offset: at } => {
                format!("InvalidBase {{ byte: {byte}, offset: {} }}", offset(at))
            }
            e => format!("{e:?}"),
        })
    }

    /// Pieces the differential generator concatenates: headers with and
    /// without descriptions (a small name pool, so duplicates and empty
    /// contigs occur), bases in both cases, `N` runs and other IUPAC
    /// letters, and every line ending and trailing-whitespace form.
    const PIECES: [&str; 29] = [
        ">chr1\n",
        ">chr2 a description\n",
        ">chr3\tdesc with words\r\n",
        ">chrM  \n",
        ">\n",
        "ACGT",
        "ACGT",
        "ACGTACGTAC",
        "TTGACCA",
        "acgtacgt",
        "CCGGttaa",
        "GATTACA",
        "gGcCaAtT",
        "NNNN",
        "nnn",
        "RYKMSWBDHV",
        "acgtn",
        "\n",
        "\n",
        "\r\n",
        "\r\n",
        "\n\n",
        "\r\n\r\n",
        "  ",
        "\t",
        " \t\r\n",
        "\t\n",
        "\x0b\n",
        "\x0c",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass parser agrees with the reference on generated
        /// ASCII FASTA, strict and lossy, and the one-pass resilient read
        /// equals strict-then-lossy, `degraded` flag included.
        #[test]
        fn one_pass_parser_matches_the_line_parser(
            lead in prop::sample::select(vec![
                ">lead description\n",
                ">lead\r\n",
                "\n \r\n>lead\t\n",
                "",
            ]),
            pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..40),
        ) {
            let text = format!("{lead}{}", pieces.concat());
            let bytes = text.as_bytes();
            let to_input = |n| input_offset(bytes, n);

            let strict = outcome(reference::read_impl(bytes, false), to_input);
            prop_assert_eq!(outcome(read_genome(bytes), |at| at), strict.clone(), "{:?}", text);
            let lossy = outcome(reference::read_impl(bytes, true), to_input);
            prop_assert_eq!(outcome(read_genome_lossy(bytes), |at| at), lossy.clone(), "{:?}", text);

            let strict_then_lossy = match strict {
                Ok(genome) => Ok((genome, false)),
                Err(e) if e.starts_with("InvalidBase") => lossy.map(|genome| (genome, true)),
                Err(e) => Err(e),
            };
            prop_assert_eq!(
                outcome(read_genome_resilient(bytes), |at| at),
                strict_then_lossy,
                "{:?}",
                text
            );
        }
    }

    #[test]
    fn roundtrip() {
        let mut genome = Genome::new();
        genome.add_contig("chr1", "ACGTACGTACGT".parse().unwrap()).unwrap();
        genome.add_contig("chr2", "GGGG".parse().unwrap()).unwrap();
        let mut buf = Vec::new();
        write_genome(&mut buf, &genome, 5).unwrap();
        let parsed = read_genome(buf.as_slice()).unwrap();
        assert_eq!(parsed, genome);
    }

    #[test]
    fn header_takes_first_token() {
        let fasta = b">chr1 description here\nACGT\n";
        let genome = read_genome(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].name(), "chr1");
    }

    #[test]
    fn strict_rejects_n() {
        let fasta = b">c\nACGNACGT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: b'N', .. })
        ));
    }

    #[test]
    fn lossy_skips_n() {
        let fasta = b">c\nACGNNNACGT\n";
        let genome = read_genome_lossy(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGACGT");
    }

    #[test]
    fn sequence_before_header_is_malformed() {
        let fasta = b"ACGT\n>c\nACGT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::MalformedFasta { line: 1, .. })
        ));
    }

    #[test]
    fn blank_lines_and_case_are_tolerated() {
        let fasta = b">c\n\nacgt\nACGT\n\n";
        let genome = read_genome(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGTACGT");
    }

    #[test]
    fn duplicate_fasta_contigs_are_rejected() {
        let fasta = b">c\nACGT\n>c\nTTTT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::DuplicateContig(ref n)) if n == "c"
        ));
    }

    #[test]
    fn resilient_read_prefers_strict() {
        let (genome, degraded) = read_genome_resilient(b">c\nACGT\n").unwrap();
        assert!(!degraded);
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGT");
    }

    #[test]
    fn resilient_read_falls_back_to_lossy_on_bad_bases() {
        let (genome, degraded) = read_genome_resilient(b">c\nACGNNNACGT\n").unwrap();
        assert!(degraded);
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGACGT");
    }

    #[test]
    fn resilient_read_still_rejects_structural_damage() {
        assert!(matches!(
            read_genome_resilient(b"ACGT\n>c\nACGT\n"),
            Err(GenomeError::MalformedFasta { .. })
        ));
    }

    #[test]
    fn injected_fasta_fault_surfaces_as_io_error() {
        let _s = crispr_failpoint::FailScenario::setup("fasta.read=error:1.0,3");
        assert!(matches!(read_genome(b">c\nACGT\n".as_slice()), Err(GenomeError::Io(_))));
    }

    #[test]
    fn non_utf8_sequence_bytes_are_dropped_or_rejected_as_bases() {
        let fasta = b">c\nAC\xffGT\n";
        let genome = read_genome_lossy(fasta.as_slice()).unwrap();
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGT");
        let (genome, degraded) = read_genome_resilient(fasta).unwrap();
        assert!(degraded);
        assert_eq!(genome.contigs()[0].seq().to_string(), "ACGT");
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: 0xff, offset: 5 })
        ));
    }

    #[test]
    fn non_utf8_header_is_malformed_at_its_line() {
        let fasta = b">a\nACGT\n>b\xfe\nACGT\n";
        for result in [read_genome(fasta.as_slice()), read_genome_lossy(fasta.as_slice())] {
            assert!(matches!(result, Err(GenomeError::MalformedFasta { line: 3, .. })));
        }
        assert!(matches!(
            read_genome_resilient(fasta),
            Err(GenomeError::MalformedFasta { line: 3, .. })
        ));
    }

    #[test]
    fn invalid_base_offset_is_the_input_byte_offset() {
        // The N is input byte 13 (0-based): ">a\n" 3 + "ACGT\n" 5 +
        // ">b\n" 3 + "AC" 2; counting sequence bytes only gave 6.
        let fasta = b">a\nACGT\n>b\nACNT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: b'N', offset: 13 })
        ));
        // CRLF endings and trailing whitespace count as input bytes too.
        let fasta = b">a\r\nAC \r\nGXT\n";
        assert!(matches!(
            read_genome(fasta.as_slice()),
            Err(GenomeError::InvalidBase { byte: b'X', offset: 10 })
        ));
    }

    #[test]
    fn multiline_wrapping_respects_width() {
        let mut genome = Genome::new();
        genome.add_contig("c", "ACGTACGTAC".parse().unwrap()).unwrap();
        let mut buf = Vec::new();
        write_genome(&mut buf, &genome, 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, ">c\nACGT\nACGT\nAC\n");
    }
}
