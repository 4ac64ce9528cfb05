//! An interactive HQL shell with snapshot persistence.
//!
//! ```sh
//! cargo run --example hql_repl
//! ```
//!
//! Starts with the paper's Fig. 1 world preloaded; type HQL statements
//! (`SHOW Flies;`, `HOLDS Flies (Patricia);`, `WHY Flies (Paul);`,
//! `CHECK Flies;`, `CONSOLIDATE Flies;`, …) or `.help` / `.quit`.
//! When stdin is not a TTY (e.g. piped input), the shell runs the piped
//! script and exits — which is how this example doubles as an
//! integration check.

use std::io::{BufRead, Write};

use hrdm::hql::Engine;

const PRELUDE: &str = r#"
CREATE DOMAIN Animal;
CREATE CLASS Bird UNDER Animal;
CREATE CLASS Canary UNDER Bird;
CREATE CLASS Penguin UNDER Bird;
CREATE CLASS "Galapagos Penguin" UNDER Penguin;
CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;
CREATE INSTANCE Tweety OF Canary;
CREATE INSTANCE Paul OF "Galapagos Penguin";
CREATE INSTANCE Patricia OF "Galapagos Penguin", "Amazing Flying Penguin";
CREATE INSTANCE Pamela OF "Amazing Flying Penguin";
CREATE INSTANCE Peter OF "Amazing Flying Penguin";
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (ALL Bird);
ASSERT NOT Flies (ALL Penguin);
ASSERT Flies (ALL "Amazing Flying Penguin");
ASSERT Flies (Peter);
"#;

const HELP: &str = "\
HQL statements (see crates/hql for the full grammar):
  CREATE DOMAIN d; CREATE CLASS c UNDER p; CREATE INSTANCE i OF c;
  CREATE RELATION r (attr: domain, ...);
  ASSERT [NOT] r (ALL Class, instance, ...); RETRACT r (...);
  HOLDS r (...); WHY r (...); CHECK r; SHOW r; SHOW DOMAIN d;
  SHOW RELATIONS [OVER d]; DUMP r AS s;
  CONSOLIDATE r; EXPLICATE r [ON attr]; SET PREEMPTION r ON-PATH;
  LET x = UNION a b | INTERSECT a b | DIFFERENCE a b | JOIN a b
        | PROJECT a (attrs) | SELECT a WHERE attr IS value;
Shell commands: .help  .relations  .quit";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Engine::new();
    session.execute(PRELUDE)?;
    println!("hrdm HQL shell — Fig. 1 world preloaded ('.help' for help)");

    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("hql> ");
        } else {
            print!(" ...> ");
        }
        std::io::stdout().flush()?;
        line.clear();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        match trimmed {
            ".quit" | ".exit" => break,
            ".help" => {
                println!("{HELP}");
                continue;
            }
            ".relations" => {
                for name in session.snapshot().relation_names() {
                    println!("  {name}");
                }
                continue;
            }
            "" => continue,
            _ => {}
        }
        buffer.push_str(&line);
        // Execute once the statement is terminated.
        if !trimmed.ends_with(';') {
            continue;
        }
        match session.execute(&buffer) {
            Ok(responses) => {
                for r in responses {
                    println!("{r}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
        buffer.clear();
    }
    Ok(())
}
