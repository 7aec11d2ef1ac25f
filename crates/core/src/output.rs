//! The one serializer of hit rows: the TSV header and rows, and the JSON
//! `hits` array. The CLI's `search` output and the serve daemon's
//! response bodies both write through it, so a served answer diffs
//! cleanly against `offtarget search -o hits.tsv`; each caller keeps
//! only its own envelope around the rows.

use crispr_guides::{Guide, Hit};
use crispr_model::json::escape;
use std::io::{self, Write};

/// Writes hits with their guide ids and contig names resolved.
#[derive(Debug, Clone, Copy)]
pub struct HitWriter<'a> {
    guides: &'a [Guide],
    contig_names: &'a [String],
}

impl<'a> HitWriter<'a> {
    /// A writer resolving `Hit::guide` against `guides` and `Hit::contig`
    /// against `contig_names`.
    pub fn new(guides: &'a [Guide], contig_names: &'a [String]) -> HitWriter<'a> {
        HitWriter { guides, contig_names }
    }

    /// The TSV header line, then one row per hit.
    ///
    /// # Errors
    ///
    /// Any error from `out`.
    pub fn tsv<W: Write>(&self, out: &mut W, hits: &[Hit]) -> io::Result<()> {
        out.write_all(b"#guide\tcontig\tpos\tstrand\tmismatches\n")?;
        for hit in hits {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                self.guides[hit.guide as usize].id(),
                self.contig_names[hit.contig as usize],
                hit.pos,
                hit.strand,
                hit.mismatches
            )?;
        }
        Ok(())
    }

    /// The `"hits"` member of a pretty-printed JSON object, indented two
    /// spaces, one hit object per line: from `  "hits": [` through the
    /// closing `  ]`, with no comma or newline after it.
    ///
    /// # Errors
    ///
    /// Any error from `out`.
    pub fn json_hits<W: Write>(&self, out: &mut W, hits: &[Hit]) -> io::Result<()> {
        // Ids and names repeat across hits; escape each one once.
        let guides: Vec<String> = self.guides.iter().map(|g| escape(g.id())).collect();
        let contigs: Vec<String> = self.contig_names.iter().map(|c| escape(c)).collect();
        out.write_all(b"  \"hits\": [\n")?;
        for (i, hit) in hits.iter().enumerate() {
            let comma = if i + 1 < hits.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"guide\":\"{}\",\"contig\":\"{}\",\"pos\":{},\"strand\":\"{}\",\"mismatches\":{}}}{comma}",
                guides[hit.guide as usize],
                contigs[hit.contig as usize],
                hit.pos,
                hit.strand,
                hit.mismatches
            )?;
        }
        out.write_all(b"  ]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crispr_genome::Strand;
    use crispr_guides::Pam;
    use crispr_model::json;

    fn fixture() -> (Vec<Guide>, Vec<String>, Vec<Hit>) {
        let guides =
            vec![
                Guide::new("g\"1\\x", "GATTACAGATTACAGATTAC".parse().unwrap(), Pam::ngg()).unwrap()
            ];
        let contigs = vec!["chr1".to_string(), "chr\"2".to_string()];
        let hits = vec![
            Hit { contig: 0, pos: 4, guide: 0, strand: Strand::Forward, mismatches: 0 },
            Hit { contig: 1, pos: 9, guide: 0, strand: Strand::Reverse, mismatches: 2 },
        ];
        (guides, contigs, hits)
    }

    #[test]
    fn tsv_writes_the_header_and_one_row_per_hit() {
        let (guides, contigs, hits) = fixture();
        let mut out = Vec::new();
        HitWriter::new(&guides, &contigs).tsv(&mut out, &hits).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "#guide\tcontig\tpos\tstrand\tmismatches\n\
             g\"1\\x\tchr1\t4\t+\t0\n\
             g\"1\\x\tchr\"2\t9\t-\t2\n"
        );
    }

    #[test]
    fn json_hits_escape_and_parse_back() {
        let (guides, contigs, hits) = fixture();
        for hits in [&hits[..], &[]] {
            let mut out = b"{\n".to_vec();
            HitWriter::new(&guides, &contigs).json_hits(&mut out, hits).unwrap();
            out.extend_from_slice(b"\n}\n");
            let text = String::from_utf8(out).unwrap();
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            let parsed = doc.get("hits").and_then(json::Value::as_array).unwrap();
            assert_eq!(parsed.len(), hits.len());
            for (value, hit) in parsed.iter().zip(hits) {
                let field = |name| value.get(name).unwrap();
                assert_eq!(field("guide").as_str(), Some(guides[0].id()));
                assert_eq!(field("contig").as_str(), Some(contigs[hit.contig as usize].as_str()));
                assert_eq!(field("pos").as_f64(), Some(hit.pos as f64));
                assert_eq!(field("strand").as_str(), Some(hit.strand.to_string().as_str()));
                assert_eq!(field("mismatches").as_f64(), Some(f64::from(hit.mismatches)));
            }
        }
    }
}
