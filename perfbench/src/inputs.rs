//! Workload definitions and their seeded, cached inputs.
//!
//! Inputs are generated in-process (synthetic genome, genome-sampled
//! guides with planted off-targets), written as the FASTA and guide
//! files the program reads, and cached by (workload, shape, seed) under
//! `.perfbench/inputs/` so that generation is never timed and repeated
//! runs on one seed skip it. The reference hit set is computed once per
//! cache entry with a different engine (`cpu-cas-offinder`) than the
//! program's default.

use crate::RunConfig;
use crispr_core::{OffTargetSearch, Platform};
use crispr_genome::synth::{RepeatFamily, SynthSpec};
use crispr_genome::{fasta, Genome, Strand};
use crispr_guides::genset::{self, PlantPlan};
use crispr_guides::{io as guide_io, normalize, Guide, Hit, Pam};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `search --genome` at `--threads 1`: the first-run user path.
    BatchFasta,
    /// `search --index` at `--threads nproc` on a repeat-rich genome
    /// with 1000 guides: the heavy screen with dense output.
    BatchIndexDense,
    /// `serve --index` driven closed-loop by `nproc` clients.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::BatchFasta, Workload::BatchIndexDense, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFasta => "batch-fasta",
            Workload::BatchIndexDense => "batch-index-dense",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The size of a workload's inputs. `full` is the benchmark; `tiny`
/// runs the same code path in seconds (the tests).
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    pub genome_len: usize,
    pub contigs: usize,
    pub repeats: Vec<(usize, usize, f64)>,
    /// Batch: guides in the guide file. Serve: the guide pool requests
    /// draw from.
    pub guides: usize,
    /// Batch: the `-k` budget. Serve: the largest `k` a request draws.
    pub k: usize,
    /// Planted off-targets per guide and mismatch level `0..=k`.
    pub plant_per_level: usize,
    /// Dense workload: guides with at least this many natural hits are
    /// "repeat" guides, and a tenth of it marks "moderate" ones; 0
    /// samples guides uniformly instead.
    pub dense_min_hits: usize,
    /// Dense workload: repeat guides are taken until their natural hits
    /// reach this total, so every seed carries the same output volume.
    pub dense_hits: usize,
    /// Serve: most guides in one request.
    pub max_request_guides: usize,
    /// Repetitions of the set-up step within one run.
    pub setup_reps: usize,
    /// Fewest timed operations per run, whatever `--seconds` says.
    pub min_ops: usize,
}

impl Shape {
    pub fn full(workload: Workload) -> Shape {
        let base = Shape {
            name: "full",
            genome_len: 10_000_000,
            contigs: 4,
            repeats: Vec::new(),
            guides: 100,
            k: 3,
            plant_per_level: 2,
            dense_min_hits: 0,
            dense_hits: 0,
            max_request_guides: 10,
            setup_reps: 5,
            min_ops: 5,
        };
        match workload {
            Workload::BatchFasta => base,
            Workload::BatchIndexDense => Shape {
                // Families in the spirit of SINE-, mid- and LINE-like
                // repeats: guides sampled inside them hit hundreds to
                // thousands of diverged copies.
                repeats: vec![(300, 4000, 0.10), (1000, 600, 0.12), (6000, 80, 0.15)],
                guides: 1000,
                k: 4,
                plant_per_level: 1,
                dense_min_hits: 100,
                dense_hits: 100_000,
                min_ops: 3,
                ..base
            },
            Workload::ServeMixed => {
                Shape { guides: 400, k: 3, plant_per_level: 1, min_ops: 100, ..base }
            }
        }
    }

    pub fn tiny(workload: Workload) -> Shape {
        let full = Shape::full(workload);
        Shape {
            name: "tiny",
            genome_len: 200_000,
            repeats: if full.repeats.is_empty() {
                Vec::new()
            } else {
                vec![(300, 100, 0.05), (1000, 10, 0.10)]
            },
            guides: if workload == Workload::ServeMixed { 24 } else { 12 },
            dense_min_hits: full.dense_min_hits / 10,
            dense_hits: full.dense_hits / 500,
            setup_reps: 2,
            min_ops: if workload == Workload::ServeMixed { 20 } else { 2 },
            ..full
        }
    }
}

/// One serve request: a guide set drawn from the pool and a budget.
#[derive(Debug, Clone)]
pub struct Request {
    /// Pool indices, in body order.
    pub guides: Vec<usize>,
    pub k: usize,
    /// Re-sends one of the last few new guide sets (a cache candidate).
    pub repeat: bool,
    /// The request body: the guide list.
    pub body: Vec<u8>,
}

/// A workload's inputs, on disk and in memory.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub dir: PathBuf,
    pub genome_fa: PathBuf,
    /// Batch: the guide file searched. Serve: the request pool.
    pub guides_txt: PathBuf,
    pub guides: Vec<Guide>,
    pub contig_names: Vec<String>,
    /// Genome length in bases.
    pub bases: usize,
    pub k: usize,
    /// Normalized reference hits of `guides` at `k`.
    pub reference: Vec<Hit>,
    /// `reference` in the CLI's TSV format (the expected batch output).
    pub reference_tsv: Vec<u8>,
    /// Serve only: the request sequence clients take from in order.
    pub requests: Vec<Request>,
    /// Generated-input properties, recorded with every result.
    pub properties: Vec<(String, String)>,
}

impl Inputs {
    /// The exact body the daemon must answer `request` with.
    pub fn expected_body(&self, request: &Request) -> Vec<u8> {
        let slots: HashMap<u32, u32> =
            request.guides.iter().enumerate().map(|(slot, &g)| (g as u32, slot as u32)).collect();
        let mut hits: Vec<Hit> = self
            .reference
            .iter()
            .filter(|h| h.mismatches as usize <= request.k)
            .filter_map(|h| Some(Hit { guide: *slots.get(&h.guide)?, ..*h }))
            .collect();
        normalize(&mut hits);
        let ids: Vec<&str> = request.guides.iter().map(|&g| self.guides[g].id()).collect();
        render_tsv(&hits, &ids, &self.contig_names)
    }
}

/// Renders hits exactly as `offtarget search` writes TSV.
pub fn render_tsv(hits: &[Hit], guide_ids: &[&str], contig_names: &[String]) -> Vec<u8> {
    let mut out = String::with_capacity(40 + hits.len() * 40);
    out.push_str("#guide\tcontig\tpos\tstrand\tmismatches\n");
    for hit in hits {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            guide_ids[hit.guide as usize],
            contig_names[hit.contig as usize],
            hit.pos,
            hit.strand,
            hit.mismatches
        );
    }
    out.into_bytes()
}

/// A small deterministic generator for the request plan.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Requests in one serve plan; clients stop long before the end.
const PLAN_LEN: usize = 20_000;
/// A repeat re-sends one of this many most recent new guide sets.
const RECENT_SETS: usize = 4;

/// The serve request sequence for `seed`: about half the requests
/// re-send a recent guide set (same guides, same `k`), the rest draw a
/// new set of 1..=`max_guides` pool guides with `k` uniform in `0..=k`.
pub fn request_plan(pool: &[Guide], shape: &Shape, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5e57_e5e5_0000_0001);
    let mut recent: VecDeque<usize> = VecDeque::new();
    let mut plan: Vec<Request> = Vec::with_capacity(PLAN_LEN);
    for i in 0..PLAN_LEN {
        if !recent.is_empty() && rng.below(2) == 0 {
            let from = recent[rng.below(recent.len())];
            let request = Request { repeat: true, ..plan[from].clone() };
            plan.push(request);
            continue;
        }
        let n = 1 + rng.below(shape.max_request_guides.min(pool.len()));
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        while picked.len() < n {
            let g = rng.below(pool.len());
            if !picked.contains(&g) {
                picked.push(g);
            }
        }
        let chosen: Vec<Guide> = picked.iter().map(|&g| pool[g].clone()).collect();
        let mut body = Vec::new();
        guide_io::write_guides(&mut body, &chosen).expect("writing to a Vec cannot fail");
        plan.push(Request { guides: picked, k: rng.below(shape.k + 1), repeat: false, body });
        recent.push_back(i);
        if recent.len() > RECENT_SETS {
            recent.pop_front();
        }
    }
    plan
}

/// Inputs for `cfg`, generated on first use and cached afterwards.
pub fn prepare(cfg: &RunConfig) -> Result<Inputs, String> {
    let dir = cfg.work.join("inputs").join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.shape.name,
        cfg.seed
    ));
    let done = dir.join("complete");
    if !done.is_file() {
        evict_old(&cfg.work.join("inputs"), 24);
        crate::recreate(&dir)?;
        let start = std::time::Instant::now();
        generate(cfg, &dir)?;
        eprintln!(
            "perfbench: generated {} in {:.1} s",
            dir.display(),
            start.elapsed().as_secs_f64()
        );
        std::fs::write(&done, b"").map_err(|e| format!("write {}: {e}", done.display()))?;
    }
    load(cfg, &dir)
}

/// Keeps at most `keep - 1` cached input sets, dropping the oldest.
fn evict_old(inputs: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(inputs) else { return };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    dirs.sort();
    while dirs.len() >= keep {
        let (_, path) = dirs.remove(0);
        let _ = std::fs::remove_dir_all(path);
    }
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn generate(cfg: &RunConfig, dir: &Path) -> Result<(), String> {
    let shape = &cfg.shape;
    let mut spec =
        SynthSpec::new(shape.genome_len).seed(cfg.seed).gc_content(0.41).contigs(shape.contigs);
    for &(unit_len, copies, divergence) in &shape.repeats {
        spec = spec.repeat_family(RepeatFamily { unit_len, copies, divergence });
    }
    let genome = spec.generate();
    let guides = if shape.dense_min_hits == 0 {
        sample_guides(&genome, shape.guides, cfg.seed)?
    } else {
        dense_guides(&genome, shape, cfg.seed)?
    };
    let plan = PlantPlan::uniform(shape.k, shape.plant_per_level);
    let (genome, planted) = genset::plant_offtargets(genome, &guides, &plan, cfg.seed ^ 0x706c);

    let reference = reference_hits(&genome, &guides, shape.k)?;
    let missing = planted.iter().filter(|h| reference.binary_search(h).is_err()).count();
    if missing > 0 {
        return Err(format!("reference misses {missing} of {} planted sites", planted.len()));
    }

    let genome_fa = dir.join("genome.fa");
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(&genome_fa).map_err(io_err(&genome_fa))?);
    fasta::write_genome(&mut out, &genome, 70).map_err(|e| e.to_string())?;
    out.flush().map_err(io_err(&genome_fa))?;
    drop(out);
    let guides_txt = dir.join("guides.txt");
    let mut text = Vec::new();
    guide_io::write_guides(&mut text, &guides).map_err(|e| e.to_string())?;
    std::fs::write(&guides_txt, text).map_err(io_err(&guides_txt))?;

    let names: Vec<String> = genome.contigs().iter().map(|c| c.name().to_string()).collect();
    let ids: Vec<&str> = guides.iter().map(Guide::id).collect();
    let reference_path = dir.join("reference.tsv");
    std::fs::write(&reference_path, render_tsv(&reference, &ids, &names))
        .map_err(io_err(&reference_path))?;
    let contigs_path = dir.join("contigs.txt");
    std::fs::write(&contigs_path, names.join("\n")).map_err(io_err(&contigs_path))?;

    let nominal_repeat: usize = shape.repeats.iter().map(|&(unit, copies, _)| unit * copies).sum();
    let mut props: Vec<(String, String)> = vec![
        ("genome_bases".into(), genome.total_len().to_string()),
        ("contigs".into(), genome.contig_count().to_string()),
        ("gc".into(), "0.41".into()),
        (
            "repeat_share_nominal".into(),
            format!("{:.4}", (nominal_repeat as f64 / shape.genome_len as f64).min(1.0)),
        ),
        ("guide_count".into(), guides.len().to_string()),
        ("planted_hits".into(), planted.len().to_string()),
        ("reference_hits".into(), reference.len().to_string()),
        ("reference_engine".into(), Platform::CpuCasOffinder.name().to_string()),
    ];
    let per_guide = hit_counts(&reference, guides.len());
    let min = per_guide.iter().min().copied().unwrap_or(0);
    props.push(("hits_per_guide_min".into(), min.to_string()));
    let max = per_guide.iter().max().copied().unwrap_or(0);
    props.push(("hits_per_guide_max".into(), max.to_string()));
    let meta: String = props.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let meta_path = dir.join("meta.txt");
    std::fs::write(&meta_path, meta).map_err(io_err(&meta_path))
}

fn hit_counts(reference: &[Hit], guides: usize) -> Vec<usize> {
    let mut counts = vec![0usize; guides];
    for hit in reference {
        counts[hit.guide as usize] += 1;
    }
    counts
}

/// `count` NGG guides sampled from sites present in `genome`.
fn sample_guides(genome: &Genome, count: usize, seed: u64) -> Result<Vec<Guide>, String> {
    let guides = genset::guides_from_genome(genome, count, 20, &Pam::ngg(), seed ^ 0x6775);
    if guides.len() < count {
        return Err(format!("only {} of {count} guides could be sampled", guides.len()));
    }
    Ok(guides)
}

/// Genome-sampled guides with a seed-independent output volume. Which
/// sampled guides land in repeats varies by seed, and with it the hit
/// count; so four times as many candidates are sampled, their natural
/// hits counted, and the set is made of repeat guides (at least
/// `dense_min_hits` hits each) until their hits reach `dense_hits`, a
/// twentieth of moderate guides (a tenth of that, at least 2), and unique guides
/// for the rest — in sampling order, renumbered.
fn dense_guides(genome: &Genome, shape: &Shape, seed: u64) -> Result<Vec<Guide>, String> {
    let candidates = sample_guides(genome, shape.guides * 4, seed)?;
    let counts = hit_counts(&reference_hits(genome, &candidates, shape.k)?, candidates.len());
    let mut repeat_hits = 0;
    let mut picked = Vec::with_capacity(shape.guides);
    let (mut moderate, mut unique) = (Vec::new(), Vec::new());
    for (i, &hits) in counts.iter().enumerate() {
        if hits >= shape.dense_min_hits {
            if repeat_hits < shape.dense_hits {
                picked.push(i);
                repeat_hits += hits;
            }
        } else if hits >= (shape.dense_min_hits / 10).max(2) {
            moderate.push(i);
        } else {
            unique.push(i);
        }
    }
    if repeat_hits < shape.dense_hits {
        return Err(format!("repeat guides carry only {repeat_hits} of {} hits", shape.dense_hits));
    }
    picked.extend(moderate.into_iter().take(shape.guides / 20));
    let rest = shape.guides.saturating_sub(picked.len());
    if unique.len() < rest {
        return Err(format!("only {} unique guides for {rest} slots", unique.len()));
    }
    picked.extend(unique.into_iter().take(rest));
    picked.sort_unstable();
    picked
        .iter()
        .enumerate()
        .map(|(j, &i)| {
            let g = &candidates[i];
            Guide::new(format!("guide{j}"), g.spacer().clone(), g.pam().clone())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The reference hit set, from an engine other than the default one.
fn reference_hits(genome: &Genome, guides: &[Guide], k: usize) -> Result<Vec<Hit>, String> {
    let report = OffTargetSearch::new(genome.clone())
        .guides(guides.iter().cloned())
        .max_mismatches(k)
        .platform(Platform::CpuCasOffinder)
        .threads(crate::nproc())
        .run()
        .map_err(|e| format!("reference search: {e}"))?;
    if report.is_partial() {
        return Err("reference search was partial".into());
    }
    let mut hits = report.into_hits();
    normalize(&mut hits);
    Ok(hits)
}

fn load(cfg: &RunConfig, dir: &Path) -> Result<Inputs, String> {
    let genome_fa = dir.join("genome.fa");
    let guides_txt = dir.join("guides.txt");
    let guides =
        guide_io::read_guides(std::fs::File::open(&guides_txt).map_err(io_err(&guides_txt))?)
            .map_err(|e| e.to_string())?;
    let contigs_path = dir.join("contigs.txt");
    let contig_names: Vec<String> = std::fs::read_to_string(&contigs_path)
        .map_err(io_err(&contigs_path))?
        .lines()
        .map(str::to_string)
        .collect();
    let reference_path = dir.join("reference.tsv");
    let reference_tsv = std::fs::read(&reference_path).map_err(io_err(&reference_path))?;
    let reference = parse_tsv(&reference_tsv, &guides, &contig_names)?;
    let meta_path = dir.join("meta.txt");
    let mut properties: Vec<(String, String)> = std::fs::read_to_string(&meta_path)
        .map_err(io_err(&meta_path))?
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let genome_bytes = std::fs::metadata(&genome_fa).map_err(io_err(&genome_fa))?.len();
    let bases = properties
        .iter()
        .find(|(k, _)| k == "genome_bases")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("meta.txt lacks genome_bases")?;
    properties.push(("genome_bytes".into(), genome_bytes.to_string()));

    let requests = if cfg.workload == Workload::ServeMixed {
        request_plan(&guides, &cfg.shape, cfg.seed)
    } else {
        Vec::new()
    };
    match cfg.workload {
        Workload::ServeMixed => {
            let head = &requests[..1000.min(requests.len())];
            let repeats = head.iter().filter(|r| r.repeat).count();
            properties.push(("k_mix".into(), format!("uniform 0..={}", cfg.shape.k)));
            properties.push((
                "request_guides".into(),
                format!("uniform 1..={}", cfg.shape.max_request_guides),
            ));
            properties.push((
                "repeat_request_share".into(),
                format!("{:.4}", repeats as f64 / head.len() as f64),
            ));
        }
        _ => properties.push(("k_mix".into(), cfg.shape.k.to_string())),
    }
    properties.push(("seed".into(), cfg.seed.to_string()));
    properties.push(("shape".into(), cfg.shape.name.to_string()));
    Ok(Inputs {
        dir: dir.to_path_buf(),
        genome_fa,
        guides_txt,
        guides,
        contig_names,
        bases,
        k: cfg.shape.k,
        reference,
        reference_tsv,
        requests,
        properties,
    })
}

/// Parses the CLI's TSV back into hits (guide and contig indices).
fn parse_tsv(tsv: &[u8], guides: &[Guide], contigs: &[String]) -> Result<Vec<Hit>, String> {
    let text = std::str::from_utf8(tsv).map_err(|e| format!("hit TSV is not UTF-8: {e}"))?;
    let guide_index: HashMap<&str, u32> =
        guides.iter().enumerate().map(|(i, g)| (g.id(), i as u32)).collect();
    let contig_index: HashMap<&str, u32> =
        contigs.iter().enumerate().map(|(i, c)| (c.as_str(), i as u32)).collect();
    let mut hits = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad hit line {line:?}");
        if fields.len() != 5 {
            return Err(bad());
        }
        hits.push(Hit {
            guide: *guide_index.get(fields[0]).ok_or_else(bad)?,
            contig: *contig_index.get(fields[1]).ok_or_else(bad)?,
            pos: fields[2].parse().map_err(|_| bad())?,
            strand: match fields[3] {
                "+" => Strand::Forward,
                "-" => Strand::Reverse,
                _ => return Err(bad()),
            },
            mismatches: fields[4].parse().map_err(|_| bad())?,
        });
    }
    Ok(hits)
}
