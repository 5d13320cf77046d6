//! Golden fixture: every rule fires exactly where an expected-diagnostic
//! marker says (checked by `tests/lint_gate.rs`). This file is never
//! compiled, and `crates/lint/fixtures/` sits outside the workspace
//! scan roots, so nothing here reaches a workspace scan.

use std::collections::HashMap; //~ nondeterministic-iteration
use std::collections::HashSet; //~ nondeterministic-iteration

pub fn order(m: &HashMap<String, u32>, s: &HashSet<u32>) -> usize { //~ nondeterministic-iteration
    m.len() + s.len()
}

pub fn elapsed() -> u64 {
    let t = Instant::now(); //~ wall-clock-in-model
    t.elapsed().as_secs()
}

pub fn stamp() -> SystemTime {
    SystemTime::now() //~ wall-clock-in-model
}

pub fn stamped_event() -> u64 {
    unix_ms() //~ wall-clock-in-model
}

pub fn draws() -> u64 {
    let mut ad_hoc = thread_rng(); //~ unseeded-rng
    let mut stream = Rng64::seed_from_u64(42); //~ unseeded-rng
    ad_hoc.next_u64() + stream.next_u64()
}

pub fn reuse(rng: &RngFactory) -> Rng64 {
    rng.stream("shed", 7) //~ rng-stream-discipline
}

pub fn relabel(rng: &RngFactory, label: &str, idx: u64) -> Rng64 {
    rng.stream(label, idx) //~ rng-stream-discipline
}

pub fn is_zero(x: f64) -> bool {
    x == 0.0 //~ float-eq
}

pub fn never(x: f64) -> bool {
    x != f64::NAN //~ float-eq
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap() //~ unwrap-in-lib
}

pub fn must(o: Option<u32>) -> u32 {
    o.expect("present") //~ unwrap-in-lib
}

pub fn boom() -> ! {
    panic!("unreachable"); //~ unwrap-in-lib
}

pub fn pick(n: u32) -> u32 {
    match n {
        0 => 1,
        _ => unreachable!("n is never zero"), //~ unwrap-in-lib
    }
}

pub fn later() -> u32 {
    todo!() //~ unwrap-in-lib
}

pub fn never_built() -> u32 {
    unimplemented!() //~ unwrap-in-lib
}

// TODO: tighten this bound once sizing lands. //~ todo-marker
pub const BOUND: u32 = 8;

pub fn long_tail(mut acc: u64) -> u64 { //~ long-function
    acc = acc.wrapping_add(0);
    acc = acc.wrapping_add(1);
    acc = acc.wrapping_add(2);
    acc = acc.wrapping_add(3);
    acc = acc.wrapping_add(4);
    acc = acc.wrapping_add(5);
    acc = acc.wrapping_add(6);
    acc = acc.wrapping_add(7);
    acc = acc.wrapping_add(8);
    acc = acc.wrapping_add(9);
    acc = acc.wrapping_add(10);
    acc = acc.wrapping_add(11);
    acc = acc.wrapping_add(12);
    acc = acc.wrapping_add(13);
    acc = acc.wrapping_add(14);
    acc = acc.wrapping_add(15);
    acc = acc.wrapping_add(16);
    acc = acc.wrapping_add(17);
    acc = acc.wrapping_add(18);
    acc = acc.wrapping_add(19);
    acc = acc.wrapping_add(20);
    acc = acc.wrapping_add(21);
    acc = acc.wrapping_add(22);
    acc = acc.wrapping_add(23);
    acc = acc.wrapping_add(24);
    acc = acc.wrapping_add(25);
    acc = acc.wrapping_add(26);
    acc = acc.wrapping_add(27);
    acc = acc.wrapping_add(28);
    acc = acc.wrapping_add(29);
    acc = acc.wrapping_add(30);
    acc = acc.wrapping_add(31);
    acc = acc.wrapping_add(32);
    acc = acc.wrapping_add(33);
    acc = acc.wrapping_add(34);
    acc = acc.wrapping_add(35);
    acc = acc.wrapping_add(36);
    acc = acc.wrapping_add(37);
    acc = acc.wrapping_add(38);
    acc = acc.wrapping_add(39);
    acc = acc.wrapping_add(40);
    acc = acc.wrapping_add(41);
    acc = acc.wrapping_add(42);
    acc = acc.wrapping_add(43);
    acc = acc.wrapping_add(44);
    acc = acc.wrapping_add(45);
    acc = acc.wrapping_add(46);
    acc = acc.wrapping_add(47);
    acc = acc.wrapping_add(48);
    acc = acc.wrapping_add(49);
    acc = acc.wrapping_add(50);
    acc = acc.wrapping_add(51);
    acc = acc.wrapping_add(52);
    acc = acc.wrapping_add(53);
    acc = acc.wrapping_add(54);
    acc = acc.wrapping_add(55);
    acc = acc.wrapping_add(56);
    acc = acc.wrapping_add(57);
    acc = acc.wrapping_add(58);
    acc = acc.wrapping_add(59);
    acc = acc.wrapping_add(60);
    acc = acc.wrapping_add(61);
    acc = acc.wrapping_add(62);
    acc = acc.wrapping_add(63);
    acc = acc.wrapping_add(64);
    acc = acc.wrapping_add(65);
    acc = acc.wrapping_add(66);
    acc = acc.wrapping_add(67);
    acc = acc.wrapping_add(68);
    acc = acc.wrapping_add(69);
    acc = acc.wrapping_add(70);
    acc = acc.wrapping_add(71);
    acc = acc.wrapping_add(72);
    acc = acc.wrapping_add(73);
    acc = acc.wrapping_add(74);
    acc = acc.wrapping_add(75);
    acc = acc.wrapping_add(76);
    acc = acc.wrapping_add(77);
    acc = acc.wrapping_add(78);
    acc = acc.wrapping_add(79);
    acc = acc.wrapping_add(80);
    acc = acc.wrapping_add(81);
    acc = acc.wrapping_add(82);
    acc = acc.wrapping_add(83);
    acc = acc.wrapping_add(84);
    acc = acc.wrapping_add(85);
    acc = acc.wrapping_add(86);
    acc = acc.wrapping_add(87);
    acc = acc.wrapping_add(88);
    acc = acc.wrapping_add(89);
    acc = acc.wrapping_add(90);
    acc = acc.wrapping_add(91);
    acc = acc.wrapping_add(92);
    acc = acc.wrapping_add(93);
    acc = acc.wrapping_add(94);
    acc = acc.wrapping_add(95);
    acc = acc.wrapping_add(96);
    acc = acc.wrapping_add(97);
    acc = acc.wrapping_add(98);
    acc = acc.wrapping_add(99);
    acc = acc.wrapping_add(100);
    acc = acc.wrapping_add(101);
    acc = acc.wrapping_add(102);
    acc = acc.wrapping_add(103);
    acc = acc.wrapping_add(104);
    acc = acc.wrapping_add(105);
    acc = acc.wrapping_add(106);
    acc = acc.wrapping_add(107);
    acc = acc.wrapping_add(108);
    acc = acc.wrapping_add(109);
    acc = acc.wrapping_add(110);
    acc = acc.wrapping_add(111);
    acc = acc.wrapping_add(112);
    acc = acc.wrapping_add(113);
    acc = acc.wrapping_add(114);
    acc = acc.wrapping_add(115);
    acc = acc.wrapping_add(116);
    acc = acc.wrapping_add(117);
    acc = acc.wrapping_add(118);
    acc
}

static mut DRAWS: u64 = 0; //~ shared-state-across-shards

static HITS: AtomicU64 = AtomicU64::new(0); //~ shared-state-across-shards

static FIRST_SEED: OnceLock<u64> = OnceLock::new(); //~ shared-state-across-shards

thread_local! {
    static SCRATCH: RefCell<Vec<u64>> = RefCell::new(Vec::new()); //~ shared-state-across-shards
}

pub fn next_call() -> usize {
    static CALLS: AtomicUsize = AtomicUsize::new(0); //~ shared-state-across-shards
    CALLS.fetch_add(1, Ordering::Relaxed)
}

pub fn worker_salt(seed: u64) -> u64 {
    let id: ThreadId = thread::current().id(); //~ shared-state-across-shards
    seed ^ format!("{id:?}").len() as u64
}

pub fn negated(x: f64) -> bool {
    x == -0.5 //~ float-eq
        || x == - 1.0 //~ float-eq
        || x == -f64::INFINITY //~ float-eq
}
