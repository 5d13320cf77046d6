//! Golden fixture for the engine's boundary cases: tokens at the very
//! start and end of a file, columns after non-ASCII text, patterns the
//! lexer must hide, and near-miss markers. `tests/lint_gate.rs` checks
//! the expected-diagnostic markers and every column against
//! `edges.diagnostics`, and appends cut-off patterns (`Instant::`,
//! `rng.stream(`, `static`) to the end of the file, which must add no
//! finding. Never compiled, and outside the workspace scan roots.

f64::NAN == limit //~ float-eq

// The operator above is code token 3: the first index at which the
// backward `f64::NAN` match fits.

pub fn accents(naïve: u64) -> u64 {
    let café = Instant::now(); //~ wall-clock-in-model
    /* été → */ let t = SystemTime::now(); //~ wall-clock-in-model
    let ünïcödé: HashMap<u8, u8> = HashMap::new(); //~ nondeterministic-iteration
    naïve + café.elapsed().as_secs() + t.elapsed().as_secs()
}

pub fn hidden() -> &'static str {
    /* outer /* HashMap inner */ Instant::now() x == 0.5 .unwrap() */
    let _b = br##"static mut X: u8 = 0; "# thread::current()"##;
    r#"HashMap "quoted" x == 0.5 o.unwrap() panic!() Rng64::seed_from_u64(1)"#
}

/* outer /* TODO inner */ still outer */ //~ todo-marker
// XXX first, but the marker list names TODO first //~ todo-marker
// (FIXME) between brackets is a whole word //~ todo-marker
// TODO_x and xTODO and éTODO and TODOs are not whole words

pub fn spaced(o: Option<u32>, x: f64) -> bool {
    let _v = o . unwrap ( ); //~ unwrap-in-lib
    let _w = o.expect; // no call, no finding
    let _n = unwrap(o); // no receiver, no finding
    panic ! ("spaced bang"); //~ unwrap-in-lib
    x == 1e3 || 2f64 != x || x == 0x1F as f64 //~ float-eq float-eq
}

pub fn streams(rng: &RngFactory, sat: u64) {
    let _a = rng.stream(("wrapped"), sat); //~ rng-stream-discipline
    let _b = rng.stream("nested", (0)); //~ rng-stream-discipline
    let _c = rng.stream("cast", 0 as u64); //~ rng-stream-discipline
    let _d = rng.stream(sat);
    let _e = rng.stream("fine", sat);
}

pub fn identity() -> u64 {
    let _t = std::thread::current(); //~ shared-state-across-shards
    let _s = thread :: current(); //~ shared-state-across-shards
    unix_ms (); //~ wall-clock-in-model
    Event { unix_ms: 3 }.unix_ms
}

static LABEL: &str = "Mutex";
static SLOTS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)]; //~ shared-state-across-shards
static mut //~ shared-state-across-shards

pub fn outer() -> u32 { //~ long-function
    fn inner() -> u32 {
        1
    }
    let _text = r"
        HashMap Instant::now() x == 0.5 unwrap()
        A raw string spanning lines keeps `outer` over the budget.
















































































































    ";
    inner()
}

pub fn hooks(f: fn(u32) -> u32) -> fn(u32) -> u32 {
    f
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet; //~ nondeterministic-iteration

    fn t() {
        Some(1).unwrap();
        let _ = 0.5 == 0.5;
        let _ = Instant::now();
        static HITS: AtomicU64 = AtomicU64::new(0);
    }
}

// The last code token of the file is a bare `static`.
static
