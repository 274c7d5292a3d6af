//! The tool side of the environment-read clean fixture: a binary reads
//! the environment once and hands the value to the library explicitly.

fn main() {
    let mode = std::env::var("FIXTURE_MODE").ok();
    println!("{}", fixture::effective(mode));
}
