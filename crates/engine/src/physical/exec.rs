//! The batched pull-based executor for physical plans.
//!
//! Each pipeline operator is a stage with an output buffer; pulling on the
//! last stage drives the whole pipeline. Batches of bindings flow upward,
//! at most `batch_size` (live) rows per pull. Within one batch a
//! source-calling operator groups rows by their input key and issues
//! **one** call per distinct key, and a negation filter memoizes
//! membership probes — the set-at-a-time win over the retired
//! tuple-at-a-time recursion. Answers are identical; only the number of
//! duplicate wire calls changes (and deterministically so: at one width
//! the same plan reports the same [`crate::CallStats`] at every I/O worker
//! count).
//!
//! Two executors share this stage machinery and produce **identical wire
//! traffic** (same calls, same probes, same journal batch events):
//!
//! * the **columnar** executor (the default): bindings flow as
//!   [`ColumnBatch`]es of dictionary-interned `u32` codes with selection
//!   vectors, operators are vectorized (hash-partitioned bind-join build
//!   sides, branch-free negation filters, code-level answer dedup) — see
//!   [`super::column`];
//! * the **row** executor (`ExecConfig::rows()`): the PR 3
//!   `Vec<Option<Value>>`-per-binding implementation, kept as the
//!   differential test baseline.
//!
//! Error semantics are the legacy evaluator's: an operator lowered with a
//! problem (no usable pattern, unknown relation, unbound negation, unbound
//! head variable) raises its error only when a non-empty batch reaches it.

use super::column::{Code, CodeMap, CodeSet, ColumnBatch, Dictionary};
use super::plan::{AccessOp, AccessProblem, ArgSource, NegOp, PhysOp, PhysicalPlan, PhysicalUnion, ProjCol};
use crate::error::EngineError;
use crate::source::SourceRegistry;
use crate::value::{Tuple, Value};
use lap_obs::journal::kind as journal_kind;
use lap_obs::Json;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Upper bound on [`ExecConfig::batch_size`] accepted from the CLI
/// (`--batch-width`): wide enough for any realistic dedup window, small
/// enough that a typo cannot ask for a terabyte of selection vectors.
pub const MAX_BATCH_WIDTH: usize = 1 << 20;

/// Executor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum rows per batch flowing between operators (≥ 1). Width 1
    /// degenerates to tuple-at-a-time; larger widths widen the per-batch
    /// call-dedup window.
    pub batch_size: usize,
    /// Worker lanes for overlapped source I/O (≥ 1). With 1 (the
    /// default) a batch's deduplicated calls go out serially; with more,
    /// their wire waits overlap on the registry's virtual wall clock and
    /// the row transfers run on the [`crate::sched`] pool — answers and
    /// counters do not depend on the lane count.
    pub io_workers: usize,
    /// Use the columnar executor (the default). `false` selects the
    /// row-at-a-time baseline — answers, counters, and journal batch
    /// events are identical; only the in-memory representation (and its
    /// speed) differs. The row executor survives purely as the
    /// differential test baseline.
    pub columnar: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig { batch_size: 1024, io_workers: 1, columnar: true }
    }
}

impl ExecConfig {
    /// A config with the given batch width (clamped to ≥ 1).
    pub fn with_batch_size(batch_size: usize) -> ExecConfig {
        ExecConfig { batch_size: batch_size.max(1), ..ExecConfig::default() }
    }

    /// Same config with `io_workers` worker lanes for overlapped source
    /// I/O (clamped to ≥ 1).
    pub fn with_io_workers(mut self, io_workers: usize) -> ExecConfig {
        self.io_workers = io_workers.max(1);
        self
    }

    /// Same config selecting the row-at-a-time baseline executor instead
    /// of the columnar one (test baseline only).
    pub fn rows(mut self) -> ExecConfig {
        self.columnar = false;
        self
    }

    /// Same config with the executor choice set explicitly.
    pub fn with_columnar(mut self, columnar: bool) -> ExecConfig {
        self.columnar = columnar;
        self
    }
}

/// A binding: one value per plan slot, `None` while unbound.
type Row = Vec<Option<Value>>;

/// Factor at which an operator's observed output cardinality counts as
/// having blown past its planner estimate: ≥ 10× triggers the
/// `exec.estimate.blown` journal marker (the mid-query escape hatch —
/// callers re-lower from calibrated statistics before the next prepared
/// execution).
pub const ESTIMATE_BLOWN_FACTOR: f64 = 10.0;

/// Runtime counters for one operator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// The operator label (`BindJoin B^ioo(i, a, t)`).
    pub op: String,
    /// Batches processed.
    pub batches: u64,
    /// Bindings that reached the operator ("invoked", in legacy terms).
    pub rows_in: u64,
    /// Bindings it emitted (distinct answers, for the projection).
    pub rows_out: u64,
    /// Source calls issued after in-batch deduplication (membership probes
    /// for a negation filter). Probes are deduplicated over **live** rows
    /// only, and a probe memoized within a batch window is counted once —
    /// dead rows in a partially-filtered batch neither probe nor count, so
    /// `rows_in / calls` rollups stay meaningful.
    pub calls: u64,
    /// Tuples transferred from the sources by those calls.
    pub source_rows: u64,
    /// Dead rows carried past the operator by selection vectors (rows a
    /// filter killed without compacting the batch). Always 0 for the row
    /// executor, which densifies eagerly. `rows_in / (rows_in +
    /// rows_dead)` is the operator's selection-vector fill rate.
    pub rows_dead: u64,
    /// Dictionary interns by this operator that found the value already
    /// present (columnar executor only).
    pub dict_hits: u64,
    /// Dictionary interns by this operator that created a new code
    /// (columnar executor only).
    pub dict_misses: u64,
    /// True once the operator's output cardinality exceeded its static
    /// cost estimate by `ESTIMATE_BLOWN_FACTOR` (marker emitted once).
    pub estimate_blown: bool,
}

impl OpProfile {
    /// Selection-vector fill: live rows over physical rows the operator
    /// saw. 1.0 when every carried row was live (or nothing arrived).
    pub fn fill_rate(&self) -> f64 {
        let physical = self.rows_in + self.rows_dead;
        if physical == 0 {
            1.0
        } else {
            self.rows_in as f64 / physical as f64
        }
    }

    /// Dictionary hit rate of this operator's interns, `None` when the
    /// operator interned nothing (row executor, pure filters).
    pub fn dict_hit_rate(&self) -> Option<f64> {
        let total = self.dict_hits + self.dict_misses;
        (total > 0).then(|| self.dict_hits as f64 / total as f64)
    }
}

/// Runtime counters for one disjunct pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProfile {
    /// The disjunct head (`Q(i, a, t)`).
    pub head: String,
    /// Per-operator counters, in pipeline order.
    pub ops: Vec<OpProfile>,
    /// Answers the pipeline contributed.
    pub answers: u64,
}

/// Runtime counters for a union of pipelines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnionProfile {
    /// One profile per disjunct.
    pub parts: Vec<PlanProfile>,
}

impl fmt::Display for UnionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            writeln!(f, "disjunct {i}: {} — {} answer(s)", part.head, part.answers)?;
            let headers = ["operator", "invoked", "batches", "calls", "rows", "out", "fill%", "dict%"];
            let mut rows: Vec<[String; 8]> = Vec::with_capacity(part.ops.len());
            for op in &part.ops {
                rows.push([
                    op.op.clone(),
                    op.rows_in.to_string(),
                    op.batches.to_string(),
                    op.calls.to_string(),
                    op.source_rows.to_string(),
                    op.rows_out.to_string(),
                    format!("{:.0}", op.fill_rate() * 100.0),
                    op.dict_hit_rate()
                        .map_or_else(|| "-".to_owned(), |r| format!("{:.0}", r * 100.0)),
                ]);
            }
            let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
            for row in &rows {
                for (w, cell) in widths.iter_mut().zip(row.iter()) {
                    *w = (*w).max(cell.len());
                }
            }
            let emit = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
                write!(f, " ")?;
                for (w, cell) in widths.iter().zip(cells.iter()) {
                    write!(f, " {cell:<w$}", w = w)?;
                }
                writeln!(f)
            };
            let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
            emit(f, &header_cells)?;
            for row in &rows {
                emit(f, row)?;
            }
        }
        Ok(())
    }
}

/// Pull-based execution state for one pipeline.
struct PlanExec<'p> {
    plan: &'p PhysicalPlan,
    cfg: ExecConfig,
    /// One buffered stage per non-projection operator.
    buffers: Vec<VecDeque<Row>>,
    done: Vec<bool>,
    unit_sent: bool,
    profiles: Vec<OpProfile>,
}

impl<'p> PlanExec<'p> {
    fn new(plan: &'p PhysicalPlan, cfg: ExecConfig) -> PlanExec<'p> {
        let pipeline_len = plan.ops.len().saturating_sub(1);
        PlanExec {
            plan,
            cfg,
            buffers: (0..pipeline_len).map(|_| VecDeque::new()).collect(),
            done: vec![false; pipeline_len],
            unit_sent: false,
            profiles: plan
                .ops
                .iter()
                .map(|op| OpProfile { op: op.label(), ..OpProfile::default() })
                .collect(),
        }
    }

    /// The single unit binding feeding the pipeline leaf — the analogue of
    /// the legacy recursion always entering depth 0 (so depth-0 errors and
    /// empty-body projections fire exactly once).
    fn pull_unit(&mut self) -> Option<Vec<Row>> {
        if self.unit_sent {
            return None;
        }
        self.unit_sent = true;
        Some(vec![vec![None; self.plan.slots.len()]])
    }

    /// Pulls the next batch (≤ `batch_size` rows) out of stage `i`,
    /// driving upstream stages as needed. `None` once the stage is
    /// exhausted.
    fn pull(
        &mut self,
        i: usize,
        reg: &mut SourceRegistry<'_>,
    ) -> Result<Option<Vec<Row>>, EngineError> {
        loop {
            if self.buffers[i].len() >= self.cfg.batch_size || self.done[i] {
                if self.buffers[i].is_empty() {
                    return Ok(None);
                }
                let take = self.cfg.batch_size.min(self.buffers[i].len());
                return Ok(Some(self.buffers[i].drain(..take).collect()));
            }
            let input = if i == 0 { self.pull_unit() } else { self.pull(i - 1, reg)? };
            match input {
                None => self.done[i] = true,
                Some(batch) => self.process(i, &batch, reg)?,
            }
        }
    }

    /// Runs one input batch through stage `i`, buffering its output.
    fn process(
        &mut self,
        i: usize,
        batch: &[Row],
        reg: &mut SourceRegistry<'_>,
    ) -> Result<(), EngineError> {
        let plan = self.plan;
        self.profiles[i].batches += 1;
        self.profiles[i].rows_in += batch.len() as u64;
        let journaled = reg.journal_enabled();
        if journaled {
            reg.journal_emit(
                journal_kind::BATCH_BEGIN,
                Json::obj([
                    ("label", Json::str(self.profiles[i].op.as_str())),
                    ("rows_in", Json::num(batch.len() as u64)),
                ]),
            );
        }
        let mut produced: Vec<Row> = Vec::new();
        let result = match &plan.ops[i] {
            PhysOp::Access(op) | PhysOp::BindJoin(op) => {
                self.run_access(op, batch, reg, i, &mut produced)
            }
            PhysOp::NegFilter(op) => self.run_neg_filter(op, batch, reg, i, &mut produced),
            PhysOp::Project(_) => unreachable!("projection is driven by the executor root"),
        };
        // The close event is emitted even on error so begin/end pairs stay
        // balanced in the journal.
        if journaled {
            reg.journal_emit(
                journal_kind::BATCH_END,
                Json::obj([
                    ("label", Json::str(self.profiles[i].op.as_str())),
                    ("rows_out", Json::num(produced.len() as u64)),
                    ("ok", Json::Bool(result.is_ok())),
                ]),
            );
        }
        result?;
        self.profiles[i].rows_out += produced.len() as u64;
        // Mid-query escape hatch: the first time an operator's cumulative
        // output exceeds its static estimate by ESTIMATE_BLOWN_FACTOR,
        // leave a marker. The current execution keeps running (answers are
        // unaffected by cardinality misestimates); the marker tells the
        // caller to re-lower from calibrated statistics before the next
        // prepared execution.
        if let Some(cost) = plan.ops[i].cost() {
            if !self.profiles[i].estimate_blown
                && self.profiles[i].rows_out as f64 >= ESTIMATE_BLOWN_FACTOR * cost.tuples.max(1.0)
            {
                self.profiles[i].estimate_blown = true;
                reg.note_estimate_blown(
                    &self.profiles[i].op,
                    self.profiles[i].rows_out,
                    cost.tuples,
                );
            }
        }
        self.buffers[i].extend(produced);
        Ok(())
    }

    fn run_access(
        &mut self,
        op: &AccessOp,
        batch: &[Row],
        reg: &mut SourceRegistry<'_>,
        i: usize,
        produced: &mut Vec<Row>,
    ) -> Result<(), EngineError> {
        if let Some(problem) = &op.problem {
            return Err(access_error(op, problem));
        }
        let pattern = op.pattern.expect("problem-free access op has a pattern");
        // In-batch call dedup: one wire call per distinct input key, in
        // first-occurrence order. The batch's calls go out together so
        // the registry can overlap their wire waits (`io_workers > 1`).
        let mut key_index: HashMap<Vec<Option<Value>>, usize> = HashMap::new();
        let mut keys: Vec<Vec<Option<Value>>> = Vec::new();
        let mut row_keys: Vec<usize> = Vec::with_capacity(batch.len());
        for row in batch {
            let inputs: Vec<Option<Value>> = (0..pattern.arity())
                .map(|j| pattern.is_input(j).then(|| resolve(&op.args[j], row)))
                .collect();
            let k = *key_index.entry(inputs.clone()).or_insert_with(|| {
                keys.push(inputs);
                keys.len() - 1
            });
            row_keys.push(k);
        }
        let fetched = reg.call_many(op.relation, pattern, &keys)?;
        self.profiles[i].calls += keys.len() as u64;
        self.profiles[i].source_rows += fetched.iter().map(|rows| rows.len() as u64).sum::<u64>();
        for (row, &k) in batch.iter().zip(&row_keys) {
            for tuple in fetched[k].iter() {
                if let Some(out) = unify(&op.args, row, tuple) {
                    produced.push(out);
                }
            }
        }
        Ok(())
    }

    fn run_neg_filter(
        &mut self,
        op: &NegOp,
        batch: &[Row],
        reg: &mut SourceRegistry<'_>,
        i: usize,
        produced: &mut Vec<Row>,
    ) -> Result<(), EngineError> {
        if !op.unbound.is_empty() {
            return Err(EngineError::UnboundNegation { literal: op.literal.clone() });
        }
        // In-batch probe memo: one membership test per distinct key.
        let mut memo: HashMap<Vec<Value>, bool> = HashMap::new();
        for row in batch {
            let values: Vec<Value> = op.args.iter().map(|a| resolve(a, row)).collect();
            let present = match memo.get(&values) {
                Some(&p) => p,
                None => {
                    let p = reg.membership_test(op.relation, &values)?;
                    self.profiles[i].calls += 1;
                    memo.insert(values, p);
                    p
                }
            };
            if !present {
                produced.push(row.clone());
            }
        }
        Ok(())
    }
}

fn access_error(op: &AccessOp, problem: &AccessProblem) -> EngineError {
    match problem {
        AccessProblem::UnknownRelation => EngineError::UnknownRelation(op.relation.to_string()),
        AccessProblem::NoUsablePattern { bound_positions } => EngineError::NotExecutable {
            literal: op.literal.clone(),
            reason: format!(
                "no access pattern of {} has all input slots bound (bound positions: {:?})",
                op.relation, bound_positions
            ),
        },
    }
}

/// Reads one argument's value from a row. Only called for positions the
/// lowering proved bound (input slots, negation arguments).
fn resolve(arg: &ArgSource, row: &Row) -> Value {
    match *arg {
        ArgSource::Const(c) => c,
        ArgSource::Slot(s) => row[s].expect("lowering proved this slot bound"),
    }
}

/// Client-side unification of one source tuple against one binding:
/// constants and already-bound slots must agree (this also joins repeated
/// variables), unbound slots get bound. `None` if the tuple is filtered.
fn unify(args: &[ArgSource], row: &Row, tuple: &[Value]) -> Option<Row> {
    let mut out = row.clone();
    for (arg, &val) in args.iter().zip(tuple.iter()) {
        match *arg {
            ArgSource::Const(c) => {
                if c != val {
                    return None;
                }
            }
            ArgSource::Slot(s) => match out[s] {
                Some(prev) if prev != val => return None,
                Some(_) => {}
                None => out[s] = Some(val),
            },
        }
    }
    Some(out)
}

/// Executes one physical pipeline, returning its answer set.
pub fn execute_physical_cq(
    plan: &PhysicalPlan,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
) -> Result<BTreeSet<Tuple>, EngineError> {
    execute_cq_shared(plan, reg, cfg, &mut Dictionary::new()).map(|(rows, _)| rows)
}

/// One pipeline under a caller-owned dictionary: the union executors pass
/// a shared one so repeated constants across disjuncts intern once. The
/// row baseline ignores the dictionary.
fn execute_cq_shared(
    plan: &PhysicalPlan,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
    dict: &mut Dictionary,
) -> Result<(BTreeSet<Tuple>, PlanProfile), EngineError> {
    if cfg.columnar {
        execute_columnar_cq_profiled(plan, reg, cfg, dict)
    } else {
        execute_row_cq_profiled(plan, reg, cfg)
    }
}

/// The row-at-a-time baseline executor (PR 3), kept verbatim behind
/// `ExecConfig::rows()` as the differential oracle for the columnar path.
fn execute_row_cq_profiled(
    plan: &PhysicalPlan,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
) -> Result<(BTreeSet<Tuple>, PlanProfile), EngineError> {
    let last = plan.ops.len() - 1;
    let PhysOp::Project(project) = &plan.ops[last] else {
        unreachable!("lowering always ends the pipeline with a projection")
    };
    let mut exec = PlanExec::new(plan, cfg);
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    loop {
        let batch = if last == 0 { exec.pull_unit() } else { exec.pull(last - 1, reg)? };
        let Some(batch) = batch else { break };
        exec.profiles[last].batches += 1;
        exec.profiles[last].rows_in += batch.len() as u64;
        for row in &batch {
            let mut tuple = Vec::with_capacity(project.cols.len());
            for col in &project.cols {
                match *col {
                    ProjCol::Const(c) => tuple.push(c),
                    ProjCol::Slot(s) => tuple.push(row[s].expect("head slot bound by the body")),
                    ProjCol::Null => tuple.push(Value::Null),
                    ProjCol::Unbound(v) => {
                        return Err(EngineError::NotExecutable {
                            literal: project.head.clone(),
                            reason: format!("head variable {v} is neither bound nor declared null"),
                        })
                    }
                }
            }
            if out.insert(tuple) {
                exec.profiles[last].rows_out += 1;
            }
        }
    }
    let answers = out.len() as u64;
    Ok((out, PlanProfile { head: plan.head.to_string(), ops: exec.profiles, answers }))
}

/// One stage's output queue in the columnar executor: dense or filtered
/// [`ColumnBatch`]es in production order, plus their total live count so
/// group assembly never walks the queue.
struct ColStage {
    out: VecDeque<ColumnBatch>,
    out_live: usize,
}

/// Pull-based execution state for one columnar pipeline. Stage boundaries
/// (and therefore dedup windows, wire calls, and journal batch events) are
/// identical to the row executor's: a stage hands downstream groups of
/// exactly `batch_size` *live* rows (filtered batches ride along sparse,
/// dead rows excluded from the count), assembled by `Rc`-splitting at the
/// width boundary.
struct ColExec<'p> {
    plan: &'p PhysicalPlan,
    cfg: ExecConfig,
    stages: Vec<ColStage>,
    done: Vec<bool>,
    unit_sent: bool,
    profiles: Vec<OpProfile>,
}

/// Where one negation-filter argument reads its probe code from.
enum NegArg {
    Const(Code),
    Slot(usize),
}

/// A code-tuple key for the executor's per-row hash maps. Keys of up to
/// two codes — the overwhelming case for access inputs, membership probes,
/// and projection heads — pack into one machine word: no allocation on
/// insert, one hash mix instead of a length-prefixed slice walk. Every map
/// holds keys of one uniform length, so packed and wide keys never mix.
#[derive(PartialEq, Eq, Hash)]
enum CodeKey {
    Short(u64),
    Wide(Box<[Code]>),
}

#[inline]
fn code_key(codes: &[Code]) -> CodeKey {
    match *codes {
        [] => CodeKey::Short(0),
        [a] => CodeKey::Short(a as u64),
        [a, b] => CodeKey::Short((a as u64) << 32 | b as u64),
        _ => CodeKey::Wide(codes.into()),
    }
}

/// The pre-processed build side of one distinct access key: surviving
/// source tuples as code columns (one per newly-bound slot), hash-
/// partitioned by their codes at the bound-output check positions so a
/// probing row finds its matches with one hash lookup.
struct BuildSide {
    /// `bind_cols[b][t]` — code of surviving tuple `t` at bind position `b`.
    bind_cols: Vec<Vec<Code>>,
    /// Check-position codes → surviving tuple indices, in source order.
    /// Keyed by the empty key when the operator has no check positions
    /// (every surviving tuple matches every row of the key's group).
    partition: CodeMap<CodeKey, Vec<u32>>,
}

impl<'p> ColExec<'p> {
    fn new(plan: &'p PhysicalPlan, cfg: ExecConfig) -> ColExec<'p> {
        let pipeline_len = plan.ops.len().saturating_sub(1);
        ColExec {
            plan,
            cfg,
            stages: (0..pipeline_len)
                .map(|_| ColStage { out: VecDeque::new(), out_live: 0 })
                .collect(),
            done: vec![false; pipeline_len],
            unit_sent: false,
            profiles: plan
                .ops
                .iter()
                .map(|op| OpProfile { op: op.label(), ..OpProfile::default() })
                .collect(),
        }
    }

    /// The single unit batch feeding the pipeline leaf (one live row, no
    /// bound columns) — see [`PlanExec::pull_unit`].
    fn pull_unit(&mut self) -> Option<Vec<ColumnBatch>> {
        if self.unit_sent {
            return None;
        }
        self.unit_sent = true;
        Some(vec![ColumnBatch::unit(self.plan.slots.len())])
    }

    /// Pulls the next group (≤ `batch_size` live rows, exactly
    /// `batch_size` unless the stage is exhausted) out of stage `i`,
    /// driving upstream stages as needed.
    fn pull(
        &mut self,
        i: usize,
        reg: &mut SourceRegistry<'_>,
        dict: &mut Dictionary,
    ) -> Result<Option<Vec<ColumnBatch>>, EngineError> {
        loop {
            if self.stages[i].out_live >= self.cfg.batch_size || self.done[i] {
                if self.stages[i].out_live == 0 {
                    return Ok(None);
                }
                return Ok(Some(self.take_group(i)));
            }
            let input =
                if i == 0 { self.pull_unit() } else { self.pull(i - 1, reg, dict)? };
            match input {
                None => self.done[i] = true,
                Some(group) => self.process(i, &group, reg, dict)?,
            }
        }
    }

    /// Pops exactly `min(batch_size, out_live)` live rows off stage `i`'s
    /// queue, splitting the batch straddling the boundary (an O(columns)
    /// `Rc` split, no row copies).
    fn take_group(&mut self, i: usize) -> Vec<ColumnBatch> {
        let stage = &mut self.stages[i];
        let mut want = self.cfg.batch_size.min(stage.out_live);
        let mut group = Vec::new();
        while want > 0 {
            let front_live =
                stage.out.front().expect("out_live > 0 implies a queued batch").live();
            if front_live <= want {
                stage.out_live -= front_live;
                want -= front_live;
                group.push(stage.out.pop_front().expect("checked front"));
            } else {
                let front =
                    stage.out.front_mut().expect("checked front").split_front(want);
                stage.out_live -= want;
                want = 0;
                group.push(front);
            }
        }
        group
    }

    /// Runs one input group through stage `i`, queueing its output.
    fn process(
        &mut self,
        i: usize,
        group: &[ColumnBatch],
        reg: &mut SourceRegistry<'_>,
        dict: &mut Dictionary,
    ) -> Result<(), EngineError> {
        let plan = self.plan;
        let live: usize = group.iter().map(ColumnBatch::live).sum();
        let dead: usize = group.iter().map(ColumnBatch::dead).sum();
        self.profiles[i].batches += 1;
        self.profiles[i].rows_in += live as u64;
        self.profiles[i].rows_dead += dead as u64;
        let journaled = reg.journal_enabled();
        if journaled {
            reg.journal_emit(
                journal_kind::BATCH_BEGIN,
                Json::obj([
                    ("label", Json::str(self.profiles[i].op.as_str())),
                    ("rows_in", Json::num(live as u64)),
                ]),
            );
        }
        let dict_before = dict.counts();
        let mut produced: Vec<ColumnBatch> = Vec::new();
        let result = match &plan.ops[i] {
            PhysOp::Access(op) | PhysOp::BindJoin(op) => {
                self.run_access_columnar(op, group, reg, dict, i, &mut produced)
            }
            PhysOp::NegFilter(op) => {
                self.run_neg_filter_columnar(op, group, reg, dict, i, &mut produced)
            }
            PhysOp::Project(_) => unreachable!("projection is driven by the executor root"),
        };
        let produced_live: usize = produced.iter().map(ColumnBatch::live).sum();
        if journaled {
            reg.journal_emit(
                journal_kind::BATCH_END,
                Json::obj([
                    ("label", Json::str(self.profiles[i].op.as_str())),
                    ("rows_out", Json::num(produced_live as u64)),
                    ("ok", Json::Bool(result.is_ok())),
                ]),
            );
        }
        result?;
        let (hits, misses) = dict.counts();
        self.profiles[i].dict_hits += hits - dict_before.0;
        self.profiles[i].dict_misses += misses - dict_before.1;
        self.profiles[i].rows_out += produced_live as u64;
        if let Some(cost) = plan.ops[i].cost() {
            if !self.profiles[i].estimate_blown
                && self.profiles[i].rows_out as f64 >= ESTIMATE_BLOWN_FACTOR * cost.tuples.max(1.0)
            {
                self.profiles[i].estimate_blown = true;
                reg.note_estimate_blown(
                    &self.profiles[i].op,
                    self.profiles[i].rows_out,
                    cost.tuples,
                );
            }
        }
        for batch in produced {
            if batch.live() > 0 {
                self.stages[i].out_live += batch.live();
                self.stages[i].out.push_back(batch);
            }
        }
        Ok(())
    }

    /// Vectorized source access / bind join. Per group: distinct input
    /// keys are collected over the live rows (first-occurrence order, like
    /// the row executor) and fetched with one [`SourceRegistry::call_many`];
    /// each key's tuples are then filtered and interned **once** into a
    /// [`BuildSide`] (constant and repeated-variable checks are
    /// key-independent), and every live row probes the hash partition of
    /// its key with its bound-output codes, appending matches column-wise
    /// into a dense output batch.
    fn run_access_columnar(
        &mut self,
        op: &AccessOp,
        group: &[ColumnBatch],
        reg: &mut SourceRegistry<'_>,
        dict: &mut Dictionary,
        i: usize,
        produced: &mut Vec<ColumnBatch>,
    ) -> Result<(), EngineError> {
        if let Some(problem) = &op.problem {
            return Err(access_error(op, problem));
        }
        let pattern = op.pattern.expect("problem-free access op has a pattern");
        let arity = pattern.arity();
        let first = group.first().expect("process only sees non-empty groups");

        // Classify argument positions once per group. Boundness is uniform
        // per pipeline position, so the first batch speaks for all.
        enum KeyPart {
            Const(Code),
            Slot(usize),
        }
        let mut key_parts: Vec<KeyPart> = Vec::new(); // input positions, in order
        let mut key_pos_of_j: Vec<Option<usize>> = vec![None; arity];
        let mut const_checks: Vec<(usize, Value)> = Vec::new(); // tuple[j] == c
        let mut key_checks: Vec<usize> = Vec::new(); // tuple[j] == pushed input j
        let mut probe_parts: Vec<(usize, usize)> = Vec::new(); // (slot, j): bound output
        let mut dup_checks: Vec<(usize, usize)> = Vec::new(); // tuple[j] == tuple[first_j]
        let mut bind_parts: Vec<(usize, usize)> = Vec::new(); // (j, slot): first binding
        for (j, arg) in op.args.iter().enumerate() {
            match *arg {
                ArgSource::Const(c) => {
                    if pattern.is_input(j) {
                        key_pos_of_j[j] = Some(key_parts.len());
                        key_parts.push(KeyPart::Const(dict.intern(c)));
                    }
                    const_checks.push((j, c));
                }
                ArgSource::Slot(s) => {
                    if first.is_bound(s) {
                        if pattern.is_input(j) {
                            key_pos_of_j[j] = Some(key_parts.len());
                            key_parts.push(KeyPart::Slot(s));
                            key_checks.push(j);
                        } else {
                            probe_parts.push((s, j));
                        }
                    } else if let Some(&(fj, _)) =
                        bind_parts.iter().find(|&&(_, bs)| bs == s)
                    {
                        dup_checks.push((j, fj));
                    } else {
                        assert!(
                            !pattern.is_input(j),
                            "lowering proved input slots bound"
                        );
                        bind_parts.push((j, s));
                    }
                }
            }
        }

        // Distinct input keys over the live rows, first-occurrence order.
        let mut key_index: CodeMap<CodeKey, u32> = CodeMap::default();
        let mut wire_keys: Vec<Vec<Option<Value>>> = Vec::new();
        let mut row_key: Vec<u32> = Vec::new();
        let mut scratch: Vec<Code> = Vec::with_capacity(key_parts.len());
        for batch in group {
            let key_cols: Vec<Option<&[Code]>> = key_parts
                .iter()
                .map(|kp| match *kp {
                    KeyPart::Const(_) => None,
                    KeyPart::Slot(s) => Some(batch.col(s).expect("bound slot has a column")),
                })
                .collect();
            for &r in batch.rows() {
                scratch.clear();
                for (kp, col) in key_parts.iter().zip(&key_cols) {
                    scratch.push(match (kp, col) {
                        (KeyPart::Const(c), _) => *c,
                        (KeyPart::Slot(_), Some(col)) => col[r as usize],
                        (KeyPart::Slot(_), None) => unreachable!(),
                    });
                }
                let next = key_index.len() as u32;
                let k = *key_index.entry(code_key(&scratch)).or_insert_with(|| {
                    wire_keys.push(
                        (0..arity)
                            .map(|j| key_pos_of_j[j].map(|p| dict.value(scratch[p])))
                            .collect(),
                    );
                    next
                });
                row_key.push(k);
            }
        }

        let fetched = reg.call_many(op.relation, pattern, &wire_keys)?;
        self.profiles[i].calls += wire_keys.len() as u64;
        self.profiles[i].source_rows +=
            fetched.iter().map(|rows| rows.len() as u64).sum::<u64>();

        // Pre-process each key's tuples once: filter (constants, pushed
        // inputs, repeated new variables), intern, hash-partition.
        let mut builds: Vec<BuildSide> = Vec::with_capacity(fetched.len());
        let mut probe_scratch: Vec<Code> = Vec::with_capacity(probe_parts.len());
        for (k, tuples) in fetched.iter().enumerate() {
            let wire = &wire_keys[k];
            let mut build = BuildSide {
                bind_cols: vec![Vec::new(); bind_parts.len()],
                partition: CodeMap::default(),
            };
            for tuple in tuples.iter() {
                if const_checks.iter().any(|&(j, c)| tuple[j] != c) {
                    continue;
                }
                if key_checks
                    .iter()
                    .any(|&j| Some(tuple[j]) != wire[j])
                {
                    continue;
                }
                if dup_checks.iter().any(|&(j, fj)| tuple[j] != tuple[fj]) {
                    continue;
                }
                let t = build.bind_cols.first().map_or(0, Vec::len) as u32;
                for (b, &(j, _)) in bind_parts.iter().enumerate() {
                    build.bind_cols[b].push(dict.intern(tuple[j]));
                }
                probe_scratch.clear();
                for &(_, j) in &probe_parts {
                    probe_scratch.push(dict.intern(tuple[j]));
                }
                build.partition.entry(code_key(&probe_scratch)).or_default().push(t);
                // With no bind positions the tuple index is degenerate but
                // the partition entry still records one match per tuple.
            }
            builds.push(build);
        }

        // Probe: each live row looks up its key's partition with its
        // bound-output codes and appends matches column-wise.
        let carried: Vec<usize> =
            (0..self.plan.slots.len()).filter(|&s| first.is_bound(s)).collect();
        let mut out_carried: Vec<Vec<Code>> = vec![Vec::new(); carried.len()];
        let mut out_bound: Vec<Vec<Code>> = vec![Vec::new(); bind_parts.len()];
        let mut out_len = 0usize;
        let mut cursor = 0usize;
        for batch in group {
            let carried_cols: Vec<&[Code]> = carried
                .iter()
                .map(|&s| batch.col(s).expect("bound slot has a column"))
                .collect();
            let probe_cols: Vec<&[Code]> = probe_parts
                .iter()
                .map(|&(s, _)| batch.col(s).expect("bound slot has a column"))
                .collect();
            for &r in batch.rows() {
                let r = r as usize;
                let build = &builds[row_key[cursor] as usize];
                cursor += 1;
                probe_scratch.clear();
                for col in &probe_cols {
                    probe_scratch.push(col[r]);
                }
                let Some(matches) = build.partition.get(&code_key(&probe_scratch)) else {
                    continue;
                };
                let m = matches.len();
                for (out, col) in out_carried.iter_mut().zip(&carried_cols) {
                    out.extend(std::iter::repeat_n(col[r], m));
                }
                for (b, out) in out_bound.iter_mut().enumerate() {
                    out.extend(matches.iter().map(|&t| build.bind_cols[b][t as usize]));
                }
                out_len += m;
            }
        }

        let mut out_cols: Vec<Option<Vec<Code>>> = vec![None; self.plan.slots.len()];
        for (s, col) in carried.into_iter().zip(out_carried) {
            out_cols[s] = Some(col);
        }
        for (&(_, s), col) in bind_parts.iter().zip(out_bound) {
            out_cols[s] = Some(col);
        }
        produced.push(ColumnBatch::dense(out_cols, out_len));
        Ok(())
    }

    /// Vectorized negation filter: distinct probe keys are collected over
    /// the group's **live** rows only (the per-batch memo of the row
    /// executor, shared across the group's sparse batches so a probe is
    /// never double-counted when a batch is partially dead), resolved with
    /// one batched [`SourceRegistry::membership_test_many`], and the
    /// selection vectors are compacted branch-free — column data never
    /// moves.
    fn run_neg_filter_columnar(
        &mut self,
        op: &NegOp,
        group: &[ColumnBatch],
        reg: &mut SourceRegistry<'_>,
        dict: &mut Dictionary,
        i: usize,
        produced: &mut Vec<ColumnBatch>,
    ) -> Result<(), EngineError> {
        if !op.unbound.is_empty() {
            return Err(EngineError::UnboundNegation { literal: op.literal.clone() });
        }
        let nargs: Vec<NegArg> = op
            .args
            .iter()
            .map(|a| match *a {
                ArgSource::Const(c) => NegArg::Const(dict.intern(c)),
                ArgSource::Slot(s) => NegArg::Slot(s),
            })
            .collect();

        // Pass 1 — distinct probe keys over live rows, first-occurrence
        // order (the batch-window memo).
        let mut key_index: CodeMap<CodeKey, u32> = CodeMap::default();
        let mut distinct: Vec<Vec<Value>> = Vec::new();
        let mut row_key: Vec<u32> = Vec::new();
        let mut scratch: Vec<Code> = Vec::with_capacity(nargs.len());
        for batch in group {
            let arg_cols: Vec<Option<&[Code]>> = nargs
                .iter()
                .map(|a| match *a {
                    NegArg::Const(_) => None,
                    NegArg::Slot(s) => Some(batch.col(s).expect("bound slot has a column")),
                })
                .collect();
            for &r in batch.rows() {
                scratch.clear();
                for (a, col) in nargs.iter().zip(&arg_cols) {
                    scratch.push(match (a, col) {
                        (NegArg::Const(c), _) => *c,
                        (NegArg::Slot(_), Some(col)) => col[r as usize],
                        (NegArg::Slot(_), None) => unreachable!(),
                    });
                }
                let next = distinct.len() as u32;
                let k = *key_index.entry(code_key(&scratch)).or_insert_with(|| {
                    distinct.push(scratch.iter().map(|&c| dict.value(c)).collect());
                    next
                });
                row_key.push(k);
            }
        }

        // Pass 2 — one batched probe per distinct live key. Memoized
        // duplicates and dead rows count zero calls.
        let present = reg.membership_test_many(op.relation, &distinct)?;
        self.profiles[i].calls += distinct.len() as u64;

        // Pass 3 — branch-free selection-vector compaction per batch.
        let mut cursor = 0usize;
        for batch in group {
            let live = batch.live();
            let mut survivors = vec![0u32; live];
            let mut n = 0usize;
            for &r in batch.rows() {
                let keep = !present[row_key[cursor] as usize];
                cursor += 1;
                survivors[n] = r;
                n += usize::from(keep);
            }
            survivors.truncate(n);
            produced.push(batch.with_selection(survivors));
        }
        Ok(())
    }
}

/// The columnar twin of [`execute_row_cq_profiled`]: same stage windows,
/// same wire traffic, same journal events — but bindings flow as
/// dictionary codes and the projection dedups on code tuples, decoding
/// only each distinct answer.
fn execute_columnar_cq_profiled(
    plan: &PhysicalPlan,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
    dict: &mut Dictionary,
) -> Result<(BTreeSet<Tuple>, PlanProfile), EngineError> {
    let last = plan.ops.len() - 1;
    let PhysOp::Project(project) = &plan.ops[last] else {
        unreachable!("lowering always ends the pipeline with a projection")
    };
    enum PCol {
        Code(Code),
        Slot(usize),
        Unbound(lap_ir::Var),
    }
    let dict_before = dict.counts();
    let pcols: Vec<PCol> = project
        .cols
        .iter()
        .map(|col| match *col {
            ProjCol::Const(c) => PCol::Code(dict.intern(c)),
            ProjCol::Slot(s) => PCol::Slot(s),
            ProjCol::Null => PCol::Code(dict.intern(Value::Null)),
            ProjCol::Unbound(v) => PCol::Unbound(v),
        })
        .collect();
    let mut exec = ColExec::new(plan, cfg);
    let (hits, misses) = dict.counts();
    exec.profiles[last].dict_hits += hits - dict_before.0;
    exec.profiles[last].dict_misses += misses - dict_before.1;
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    let mut seen: CodeSet<CodeKey> = CodeSet::default();
    let mut scratch: Vec<Code> = Vec::with_capacity(pcols.len());
    loop {
        let group =
            if last == 0 { exec.pull_unit() } else { exec.pull(last - 1, reg, dict)? };
        let Some(group) = group else { break };
        exec.profiles[last].batches += 1;
        exec.profiles[last].rows_in +=
            group.iter().map(ColumnBatch::live).sum::<usize>() as u64;
        exec.profiles[last].rows_dead +=
            group.iter().map(ColumnBatch::dead).sum::<usize>() as u64;
        for batch in &group {
            let slot_cols: Vec<Option<&[Code]>> = pcols
                .iter()
                .map(|pc| match *pc {
                    PCol::Slot(s) => {
                        Some(batch.col(s).expect("head slot bound by the body"))
                    }
                    _ => None,
                })
                .collect();
            for &r in batch.rows() {
                scratch.clear();
                for (pc, col) in pcols.iter().zip(&slot_cols) {
                    match (pc, col) {
                        (PCol::Code(c), _) => scratch.push(*c),
                        (PCol::Slot(_), Some(col)) => scratch.push(col[r as usize]),
                        (PCol::Slot(_), None) => unreachable!(),
                        (PCol::Unbound(v), _) => {
                            return Err(EngineError::NotExecutable {
                                literal: project.head.clone(),
                                reason: format!(
                                    "head variable {v} is neither bound nor declared null"
                                ),
                            })
                        }
                    }
                }
                if seen.insert(code_key(&scratch)) {
                    let tuple: Tuple = scratch.iter().map(|&c| dict.value(c)).collect();
                    let fresh = out.insert(tuple);
                    debug_assert!(fresh, "code-tuple dedup must agree with value dedup");
                    exec.profiles[last].rows_out += 1;
                }
            }
        }
    }
    let answers = out.len() as u64;
    Ok((out, PlanProfile { head: plan.head.to_string(), ops: exec.profiles, answers }))
}

/// One disjunct dropped from a degraded evaluation: which pipeline, and
/// the terminal source failure that forced the drop.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DisjunctDegradation {
    /// Position of the disjunct in the union.
    pub index: usize,
    /// The disjunct head (`Q(i, a, t)`).
    pub head: String,
    /// Relation whose source gave up.
    pub relation: String,
    /// Fetch attempts made before giving up.
    pub attempts: u32,
    /// The terminal fault, rendered.
    pub reason: String,
}

impl fmt::Display for DisjunctDegradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disjunct {} ({}): source {} unavailable after {} attempt(s): {}",
            self.index, self.head, self.relation, self.attempts, self.reason
        )
    }
}

impl DisjunctDegradation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::num(self.index as u64)),
            ("head", Json::str(self.head.as_str())),
            ("relation", Json::str(self.relation.as_str())),
            ("attempts", Json::num(u64::from(self.attempts))),
            ("reason", Json::str(self.reason.as_str())),
        ])
    }
}

/// What a union run does with a disjunct whose source exhausts its
/// retries ([`EngineError::SourceUnavailable`]). Any other error aborts
/// the run under both policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnUnavailable {
    /// Propagate the error — the paper's Fig. 4 as written.
    Abort,
    /// Drop the disjunct *whole* (it contributes no rows at all), report
    /// it in [`UnionRun::dropped`], bump the `source.degraded` counter on
    /// the registry's recorder, and keep evaluating the rest.
    ///
    /// Soundness: a fault is an error, never an empty answer, so a
    /// surviving disjunct returns exactly its fault-free rows and the
    /// degraded result is a subset of the fault-free one.
    Drop,
}

/// What one union run produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnionRun {
    /// The set union of the surviving disjuncts' answers.
    pub rows: BTreeSet<Tuple>,
    /// Per-operator runtime counters, one part per surviving disjunct.
    pub profile: UnionProfile,
    /// The disjuncts dropped under [`OnUnavailable::Drop`] (always empty
    /// under [`OnUnavailable::Abort`]).
    pub dropped: Vec<DisjunctDegradation>,
}

/// Executes a physical union — the one union driver: disjuncts run in
/// order against one registry (whose overlapped I/O supplies the paper's
/// "possibly in parallel"), one span per disjunct when the registry's
/// recorder has tracing enabled, one dictionary shared across disjuncts,
/// and `on_unavailable` deciding what an exhausted source does to its
/// disjunct.
pub fn execute_physical_union_with(
    union: &PhysicalUnion,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
    on_unavailable: OnUnavailable,
) -> Result<UnionRun, EngineError> {
    let recorder = reg.recorder().clone();
    // Registered only under the drop policy, so an aborting run's metrics
    // snapshot carries no `source.degraded` line.
    let degraded =
        (on_unavailable == OnUnavailable::Drop).then(|| recorder.counter("source.degraded"));
    let mut dict = Dictionary::new();
    let mut run = UnionRun::default();
    for (index, plan) in union.parts.iter().enumerate() {
        let _span = recorder.span_lazy(|| format!("disjunct {index}: {}", plan.head));
        match (execute_cq_shared(plan, reg, cfg, &mut dict), &degraded) {
            (Ok((rows, profile)), _) => {
                run.rows.extend(rows);
                run.profile.parts.push(profile);
            }
            (
                Err(EngineError::SourceUnavailable { relation, attempts, reason }),
                Some(degraded),
            ) => {
                degraded.incr();
                let head = plan.head.to_string();
                let d = DisjunctDegradation { index, head, relation, attempts, reason };
                reg.journal_emit(journal_kind::DISJUNCT_DEGRADED, d.to_json());
                run.dropped.push(d);
            }
            (Err(other), _) => return Err(other),
        }
    }
    Ok(run)
}

/// [`execute_physical_union_with`] at [`OnUnavailable::Abort`], rows only.
pub fn execute_physical_union(
    union: &PhysicalUnion,
    reg: &mut SourceRegistry<'_>,
    cfg: ExecConfig,
) -> Result<BTreeSet<Tuple>, EngineError> {
    execute_physical_union_with(union, reg, cfg, OnUnavailable::Abort).map(|run| run.rows)
}

#[cfg(test)]
mod tests {
    use super::super::lower::{lower_cq, lower_union};
    use super::*;
    use crate::instance::Database;
    use lap_ir::{parse_cq, Schema};

    fn bookstore() -> (Database, Schema) {
        let db = Database::from_facts(
            r#"
            B(1, "tolkien", "lotr"). B(2, "tolkien", "hobbit"). B(3, "adams", "hhgttg").
            C(1, "tolkien"). C(3, "adams"). C(4, "tolkien").
            L(1).
            "#,
        )
        .unwrap();
        let schema =
            Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("C", "oo"), ("L", "o")]).unwrap();
        (db, schema)
    }

    fn run(text: &str, nulls: &[&str], batch: usize) -> Result<BTreeSet<Tuple>, EngineError> {
        let (db, schema) = bookstore();
        let null_vars: Vec<lap_ir::Var> = nulls.iter().map(|n| lap_ir::Var::new(n)).collect();
        let plan = lower_cq(&parse_cq(text).unwrap(), &null_vars, &schema);
        let mut reg = SourceRegistry::new(&db, &schema);
        execute_physical_cq(&plan, &mut reg, ExecConfig::with_batch_size(batch))
    }

    #[test]
    fn answers_are_identical_across_batch_widths() {
        let text = "Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).";
        let wide = run(text, &[], 1024).unwrap();
        assert_eq!(run(text, &[], 1).unwrap(), wide);
        assert_eq!(run(text, &[], 2).unwrap(), wide);
        assert_eq!(wide.len(), 1);
    }

    #[test]
    fn duplicate_input_keys_are_deduplicated_within_a_batch() {
        // Two C rows share the author "tolkien"; B^oio is keyed on it, so a
        // wide batch issues one call where the tuple-at-a-time path made
        // two.
        let (db, schema) = bookstore();
        let cq = parse_cq("Q(t) :- C(i, a), B(i2, a, t).").unwrap();
        let plan = lower_cq(&cq, &[], &schema);
        let mut wide = SourceRegistry::new(&db, &schema);
        let rows =
            execute_physical_cq(&plan, &mut wide, ExecConfig::with_batch_size(1024)).unwrap();
        let mut narrow = SourceRegistry::new(&db, &schema);
        let rows1 =
            execute_physical_cq(&plan, &mut narrow, ExecConfig::with_batch_size(1)).unwrap();
        assert_eq!(rows, rows1);
        assert!(wide.stats().calls < narrow.stats().calls, "{:?} vs {:?}", wide.stats(), narrow.stats());
    }

    #[test]
    fn errors_fire_only_when_reached() {
        // The broken literal sits behind an empty prefix: no binding ever
        // reaches it, so the plan evaluates to the empty set (the legacy
        // laziness ANSWER* depends on).
        let rows = run("Q(a) :- C(9, a), Zzz(a, b).", &[], 64);
        assert!(rows.unwrap().is_empty());
        // At depth 0 the unit binding always arrives: hard error.
        let err = run("Q(i, a, t) :- B(i, a, t), C(i, a).", &[], 64).unwrap_err();
        assert!(matches!(err, EngineError::NotExecutable { .. }), "{err}");
    }

    #[test]
    fn profiled_union_counts_operator_traffic() {
        let (db, schema) = bookstore();
        let parts = vec![
            (parse_cq("Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).").unwrap(), vec![]),
        ];
        let union = lower_union(&parts, &schema);
        let mut reg = SourceRegistry::new(&db, &schema);
        let cfg = ExecConfig::default();
        let UnionRun { rows, profile, .. } =
            execute_physical_union_with(&union, &mut reg, cfg, OnUnavailable::Abort).unwrap();
        assert_eq!(rows.len(), 1);
        let ops = &profile.parts[0].ops;
        assert_eq!(ops[0].rows_in, 1); // the unit binding
        assert_eq!(ops[0].calls, 1); // one free scan of C
        assert_eq!(ops[1].rows_in, 3); // three C rows reach the join
        assert_eq!(ops[3].rows_out, 1); // one distinct answer
        let text = profile.to_string();
        assert!(text.contains("invoked"), "{text}");
        assert!(text.contains("NegFilter not L(i)"), "{text}");
    }

    #[test]
    fn columnar_and_row_executors_match_answers_and_wire_traffic() {
        // The columnar executor assembles groups of exactly `batch_size`
        // live rows, so its dedup/memo windows — and therefore its wire
        // traffic — must be identical to the row baseline at every width.
        let (db, schema) = bookstore();
        let queries = [
            "Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).",
            "Q(t) :- C(i, a), B(i2, a, t).",
            "Q(t) :- B(1, a, t).",                     // const at an input slot
            "Q(a) :- C(i, a), B(i, a, \"lotr\").",     // const at an output slot
        ];
        for text in queries {
            let plan = lower_cq(&parse_cq(text).unwrap(), &[], &schema);
            for width in [1usize, 2, 3, 1024] {
                let cfg = ExecConfig::with_batch_size(width);
                let mut creg = SourceRegistry::new(&db, &schema);
                let col = execute_physical_cq(&plan, &mut creg, cfg).unwrap();
                let mut rreg = SourceRegistry::new(&db, &schema);
                let row = execute_physical_cq(&plan, &mut rreg, cfg.rows()).unwrap();
                assert_eq!(col, row, "{text} @ width {width}");
                assert_eq!(creg.stats(), rreg.stats(), "{text} @ width {width}");
            }
        }
    }

    #[test]
    fn repeated_variables_filter_source_tuples() {
        // `x` repeats inside B's output slots: only tuples with equal
        // second and third components survive (the columnar dup-check).
        let db = Database::from_facts(
            r#"B(1, "x", "x"). B(1, "x", "y"). B(2, "z", "z"). L(1). L(2)."#,
        )
        .unwrap();
        let schema = Schema::from_patterns(&[("B", "ioo"), ("L", "o")]).unwrap();
        let plan = lower_cq(&parse_cq("Q(i, x) :- L(i), B(i, x, x).").unwrap(), &[], &schema);
        for cfg in [ExecConfig::default(), ExecConfig::default().rows()] {
            let mut reg = SourceRegistry::new(&db, &schema);
            let rows = execute_physical_cq(&plan, &mut reg, cfg).unwrap();
            assert_eq!(rows.len(), 2, "{rows:?}");
        }
    }

    #[test]
    fn memoized_probes_are_not_double_counted_on_partially_dead_batches() {
        // After `not L` kills the middle row, the batch reaching `not M`
        // is partially dead (selection vector < full). The membership memo
        // must count one probe per *distinct live* key — dead rows neither
        // probe nor inflate rows_in.
        let db =
            Database::from_facts(r#"C(1, "a"). C(2, "b"). C(3, "c"). L(2)."#).unwrap();
        let schema =
            Schema::from_patterns(&[("C", "oo"), ("L", "o"), ("M", "o")]).unwrap();
        let plan = lower_cq(
            &parse_cq("Q(i) :- C(i, x), not L(i), not M(i).").unwrap(),
            &[],
            &schema,
        );
        let mut reg = SourceRegistry::new(&db, &schema);
        let (rows, profile) =
            execute_cq_shared(&plan, &mut reg, ExecConfig::default(), &mut Dictionary::new())
                .unwrap();
        assert_eq!(rows.len(), 2);
        let m = &profile.ops[2];
        assert!(m.op.contains("not M"), "{}", m.op);
        assert_eq!(m.rows_in, 2, "live rows only");
        assert_eq!(m.rows_dead, 1, "the row `not L` killed rides along");
        assert_eq!(m.calls, 2, "one probe per distinct live key");
        assert!((m.fill_rate() - 2.0 / 3.0).abs() < 1e-9, "{}", m.fill_rate());
        // The filter interns nothing (its only argument is a slot) …
        assert!(m.dict_hit_rate().is_none());
        // … but the access op that materialized C interned every value.
        assert!(profile.ops[0].dict_hit_rate().is_some());
    }

    #[test]
    fn union_disjuncts_share_one_dictionary() {
        let (db, schema) = bookstore();
        let parts = vec![
            (parse_cq("Q(i, a) :- C(i, a).").unwrap(), vec![]),
            (parse_cq("Q(i, a) :- C(i, a), not L(i).").unwrap(), vec![]),
        ];
        let union = lower_union(&parts, &schema);
        let mut reg = SourceRegistry::new(&db, &schema);
        let cfg = ExecConfig::default();
        let profile =
            execute_physical_union_with(&union, &mut reg, cfg, OnUnavailable::Abort).unwrap().profile;
        // The second disjunct's access re-interns values the first already
        // interned: its dictionary traffic is all hits, no misses.
        let second_access = &profile.parts[1].ops[0];
        assert!(second_access.dict_hits > 0, "{second_access:?}");
        assert_eq!(second_access.dict_misses, 0, "{second_access:?}");
    }
}
